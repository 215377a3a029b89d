// Package fixture is the input of TestDeadCodeFixture (deadcode_test.go at
// the repository root): the scan must list Uncalled and Point.label only.
package fixture

func Uncalled() int { return 1 } // exported, called by nothing

type Point struct {
	X, Y  int
	label string // neither read nor written
}
