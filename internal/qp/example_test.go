package qp_test

import (
	"fmt"

	"sprintcon/internal/qp"
)

// Two cores share a power budget: the rank-one term ½·A·(kᵀx)² couples
// their moves, the diagonal penalizes each. The unconstrained minimum
// (0.417, 1.917) is cut off by the box [0, 1.5]².
func ExampleSolve() {
	p := qp.Problem{
		A:  1,
		K:  []float64{0.5, 0.5},
		D:  []float64{1, 1},
		G:  []float64{-1, -2.5},
		Lo: []float64{0, 0},
		Hi: []float64{1.5, 1.5},
	}
	res, err := qp.Solve(p, qp.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("x = [%.3f %.3f], converged=%v\n", res.X[0], res.X[1], res.Converged)
	// Output:
	// x = [0.500 1.500], converged=true
}
