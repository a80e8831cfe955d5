// Package lib is the fixture of TestUnusedExportsFixture: each
// exported identifier is used, or not, in one of the ways the gate
// must tell apart.
package lib

import "fmt"

// Dead is called from nowhere: reported.
func Dead() { Dead() }

// TestOnly is called only from lib_test.go: reported.
func TestOnly() {}

// MainOnly is called only from the main package: not reported.
func MainOnly() string { return fmt.Sprint(Name("x")) }

// Name's String method is called by no one directly; it satisfies
// fmt.Stringer: not reported.
type Name string

func (n Name) String() string { return string(n) }

// Shape is an interface declared in the fixture itself.
type Shape interface{ Area() float64 }

// Square's Area method is called only through Shape: not reported.
type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }
