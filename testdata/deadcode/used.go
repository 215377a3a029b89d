package fixture

import "fixture/shapes"

type Shape interface{ Area() int }

// Area is never called by name: Point needs it to be a Shape.
func (p Point) Area() int { return p.X * p.Y }

func (p Point) Scale(k int) Point { return Point{X: k * p.X, Y: k * p.Y} }

type size struct{ w, h int } // built only by an unkeyed literal

type key struct{ a, b int } // only written, but a map compares it

type pair struct{ x, y int } // only written, but shapes.Distinct compares it

func init() {
	sz := size{2, 3}
	p := Point{X: sz.w, Y: sz.h, label: "p"}
	p.label = "q"
	p.hits++
	p.hits += 2
	var s Shape = p.Scale(2)
	seen := map[key]bool{{a: 1, b: 2}: true}
	_ = s.Area() + len(seen) + shapes.Distinct([]pair{{x: 1}, {y: 1}})
}
