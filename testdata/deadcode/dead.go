// Package fixture is the input of TestDeadCodeFixture (deadcode_test.go at
// the repository root): the scan must list Uncalled, size.Scale,
// Point.label and Point.hits only.
package fixture

func Uncalled() int { return 1 } // exported, called by nothing

// Scale is called by nothing; Point.Scale, of the same name, is called.
func (s size) Scale(k int) size { return size{k * s.w, k * s.h} }

type Point struct {
	X, Y  int
	label string // set in a keyed literal, never read
	hits  int    // only incremented
	Name  string `json:"name"` // encoding/json reads it
}
