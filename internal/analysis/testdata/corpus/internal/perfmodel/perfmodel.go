// Package perfmodel exercises the exporteddoc rule: this directory is in the
// default DocPackages set, so every exported top-level identifier needs a
// doc comment, while unexported names and documented groups stay quiet.
package perfmodel

// Model is documented; the good shape.
type Model struct{}

// Predict is a documented method.
func (Model) Predict() float64 { return 0 }

// Bounds of a prediction; the group's comment covers both names.
const (
	Lower = 0.0
	Upper = 1.0
)

// Scale is a documented var.
var Scale = 2.0

func helper() {}

type internalState struct{}

type Estimate struct{} // want exporteddoc "exported type Estimate has no doc comment"

func Fit() {} // want exporteddoc "exported function Fit has no doc comment"

func (Model) Residual() float64 { return 0 } // want exporteddoc "exported method Residual has no doc comment"
