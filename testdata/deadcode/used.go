package fixture

type Shape interface{ Area() int }

// Area is never called by name: Point needs it to be a Shape.
func (p Point) Area() int { return p.X * p.Y }

func (p Point) double() Point { return Point{X: 2 * p.X, Y: 2 * p.Y} } // taken as a method value

type size struct{ w, h int } // built only by an unkeyed literal

func init() {
	sz := size{2, 3}
	var s Shape = Point{X: sz.w, Y: sz.h}
	f := s.(Point).double
	_ = f
}
