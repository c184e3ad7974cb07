//go:build amd64

package mat

import "testing"

// withoutFMA runs f with the vector kernels switched off, the dispatch every
// CPU without AVX2+FMA takes.
func withoutFMA(t *testing.T, f func(t *testing.T)) {
	prev := haveFMA
	haveFMA = false
	defer func() { haveFMA = prev }()
	f(t)
}

func TestExpLanesBitwiseScalarDispatch(t *testing.T) { withoutFMA(t, testExpLanes) }

func TestForwardSolveLanesBitwiseScalarDispatch(t *testing.T) {
	withoutFMA(t, testForwardSolveLanes)
}

func TestForwardSolveFlatLanesBitwiseScalarDispatch(t *testing.T) {
	withoutFMA(t, testForwardSolveFlatLanes)
}

func TestPowLanesMatchesPowScalarDispatch(t *testing.T) { withoutFMA(t, testPowLanes) }
