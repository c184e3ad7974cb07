// Package mat provides the dense linear algebra needed by Gaussian process
// regression: matrices, vectors, Cholesky factorization of symmetric
// positive-definite systems, triangular solves, and log-determinants.
//
// The package is deliberately small and self-contained (stdlib only). All
// matrices are dense, row-major float64. Dimensions are validated eagerly;
// shape errors are programming errors and therefore panic, mirroring the
// behaviour of slice indexing.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a dense, row-major matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense creates an r-by-c matrix. If data is nil a zero matrix is
// allocated; otherwise data is used directly (not copied) and must have
// length r*c.
func NewDense(r, c int, data []float64) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", r, c))
	}
	if data == nil {
		data = make([]float64, r*c)
	}
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// Dims returns the row and column counts.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a slice view (not a copy).
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// RawData returns the backing slice.
func (m *Dense) RawData() []float64 { return m.data }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return &Dense{rows: m.rows, cols: m.cols, data: d}
}

// AppendRow returns an (r+1)-by-c matrix consisting of m's rows followed by
// row. The backing slice grows with append semantics, so repeated calls on
// the returned matrix copy storage O(log n) times rather than every call —
// the amortized-growth fast path of the AL loop. The receiver remains a
// valid view of its original rows (which are shared with the result until
// the next reallocation), so callers must treat m as frozen after the call.
func (m *Dense) AppendRow(row []float64) *Dense {
	if len(row) != m.cols {
		panic(fmt.Sprintf("mat: AppendRow length %d does not match cols %d", len(row), m.cols))
	}
	data := append(m.data, row...)
	return &Dense{rows: m.rows + 1, cols: m.cols, data: data}
}

// RemoveRow returns an (r−1)-by-c matrix with row i deleted, preserving the
// order of the remaining rows. The backing storage is reused (rows below i
// are copied down in place), so a pool matrix shrunk once per AL iteration
// never reallocates. The receiver must be treated as consumed: its storage
// is shared with — and partially overwritten by — the result.
func (m *Dense) RemoveRow(i int) *Dense {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: RemoveRow index %d out of range %d", i, m.rows))
	}
	if m.rows == 1 {
		return &Dense{rows: 0, cols: m.cols, data: m.data[:0]}
	}
	copy(m.data[i*m.cols:], m.data[(i+1)*m.cols:])
	return &Dense{rows: m.rows - 1, cols: m.cols, data: m.data[:(m.rows-1)*m.cols]}
}

// T returns a newly allocated transpose of m.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows, nil)
	for i := 0; i < m.rows; i++ {
		ri := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range ri {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

// Scale multiplies every element of m by s, in place.
func (m *Dense) Scale(s float64) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// AddDiag adds v to every diagonal element, in place. The matrix must be
// square.
func (m *Dense) AddDiag(v float64) {
	if m.rows != m.cols {
		panic("mat: AddDiag on non-square matrix")
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+i] += v
	}
}

// Add stores a+b into m (which may alias a or b). All shapes must match.
func (m *Dense) Add(a, b *Dense) {
	if a.rows != b.rows || a.cols != b.cols || m.rows != a.rows || m.cols != a.cols {
		panic("mat: Add shape mismatch")
	}
	for i := range m.data {
		m.data[i] = a.data[i] + b.data[i]
	}
}

// Sub stores a-b into m (which may alias a or b). All shapes must match.
func (m *Dense) Sub(a, b *Dense) {
	if a.rows != b.rows || a.cols != b.cols || m.rows != a.rows || m.cols != a.cols {
		panic("mat: Sub shape mismatch")
	}
	for i := range m.data {
		m.data[i] = a.data[i] - b.data[i]
	}
}

// mulKC is the k-dimension tile of Mul: at float64 width it keeps the
// active panel of b (mulKC rows) resident in L2 while a row of the output
// accumulates, which is what makes the classic i-k-j loop order scale past
// cache-sized operands.
const mulKC = 256

// Mul returns the product a*b as a new matrix. Rows of the output are
// computed in parallel; within a row, accumulation over k is in ascending
// order regardless of tiling or worker count, so results are deterministic.
// The inner loop is branch-free: GP covariance operands are dense, so
// per-element zero tests only cost pipeline stalls.
func Mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewDense(a.rows, b.cols, nil)
	ParallelFor(a.rows, ChunkFor(a.cols*b.cols), func(lo, hi int) {
		for kb := 0; kb < a.cols; kb += mulKC {
			kend := kb + mulKC
			if kend > a.cols {
				kend = a.cols
			}
			for i := lo; i < hi; i++ {
				ai := a.data[i*a.cols : (i+1)*a.cols]
				oi := out.data[i*out.cols : (i+1)*out.cols]
				for k := kb; k < kend; k++ {
					bk := b.data[k*b.cols : (k+1)*b.cols]
					axpy(ai[k], bk, oi)
				}
			}
		}
	})
	return out
}

// MulVec returns the matrix-vector product m*x. Output rows are computed in
// parallel with the unrolled deterministic dot kernel.
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("mat: MulVec length %d does not match cols %d", len(x), m.cols))
	}
	out := make([]float64, m.rows)
	ParallelFor(m.rows, ChunkFor(2*m.cols), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = adot(m.data[i*m.cols:(i+1)*m.cols], x)
		}
	})
	return out
}

// MulVecT returns the product mᵀ*x without materializing the transpose.
// Workers own disjoint column ranges of the output; each element
// accumulates over rows in ascending order, so the result is deterministic
// and branch-free.
func (m *Dense) MulVecT(x []float64) []float64 {
	if len(x) != m.rows {
		panic(fmt.Sprintf("mat: MulVecT length %d does not match rows %d", len(x), m.rows))
	}
	out := make([]float64, m.cols)
	ParallelFor(m.cols, ChunkFor(2*m.rows), func(lo, hi int) {
		for i := 0; i < m.rows; i++ {
			axpy(x[i], m.data[i*m.cols+lo:i*m.cols+hi], out[lo:hi])
		}
	})
	return out
}

// Eye returns the n-by-n identity matrix.
func Eye(n int) *Dense {
	m := NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Trace returns the sum of diagonal elements of a square matrix.
func (m *Dense) Trace() float64 {
	if m.rows != m.cols {
		panic("mat: Trace of non-square matrix")
	}
	var t float64
	for i := 0; i < m.rows; i++ {
		t += m.data[i*m.cols+i]
	}
	return t
}

// MaxAbs returns the largest absolute element value.
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Symmetrize replaces m with (m+mᵀ)/2, removing numerical asymmetry.
func (m *Dense) Symmetrize() {
	if m.rows != m.cols {
		panic("mat: Symmetrize of non-square matrix")
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			v := 0.5 * (m.data[i*m.cols+j] + m.data[j*m.cols+i])
			m.data[i*m.cols+j] = v
			m.data[j*m.cols+i] = v
		}
	}
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "% .6g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
