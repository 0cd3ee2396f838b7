package perfmodel

import (
	"fmt"
	"strings"
)

// Params are the §7 model parameters.  All times are in level-1 access-time
// units (t1 = 1).
type Params struct {
	// T1Access is the level-1 access time (the unit; nominally 1).
	T1Access float64
	// T2Access is the level-2 access time (the paper's t2, nominally 10).
	T2Access float64
	// TDAccess is the DTB or cache access time (the paper's tD, nominally 2).
	TDAccess float64
	// D is the average decode time per DIR instruction.
	D float64
	// G is the average time to generate and store the PSDER version of a DIR
	// instruction, after decoding.
	G float64
	// X is the average time to perform the semantics of a DIR instruction.
	X float64
	// S1 is the average number of level-1 (buffer) references to access the
	// PSDER version of one DIR instruction.
	S1 float64
	// S2 is the average number of level-2 references to access one DIR
	// instruction.
	S2 float64
	// HC is the hit ratio of an instruction cache of the stated capacity.
	HC float64
	// HD is the hit ratio of a DTB of the stated capacity.
	HD float64
}

// PaperParams returns the nominal parameterisation of §7: t1 = 1, tD = 2,
// t2 = 10, s2 = 1, s1 = 3, hc = 0.9, hD = 0.8, with g tied to d by the
// published worked expressions (g = d) and d, x left to the caller.
func PaperParams(d, x float64) Params {
	return Params{
		T1Access: 1,
		T2Access: 10,
		TDAccess: 2,
		D:        d,
		G:        d,
		X:        x,
		S1:       3,
		S2:       1,
		HC:       0.9,
		HD:       0.8,
	}
}

// Validate checks the parameters for the obvious inconsistencies.
func (p Params) Validate() error {
	if p.T1Access <= 0 || p.T2Access <= 0 || p.TDAccess <= 0 {
		return fmt.Errorf("perfmodel: access times must be positive: %+v", p)
	}
	if p.D < 0 || p.G < 0 || p.X < 0 || p.S1 < 0 || p.S2 < 0 {
		return fmt.Errorf("perfmodel: negative cost parameter: %+v", p)
	}
	if p.HC < 0 || p.HC > 1 || p.HD < 0 || p.HD > 1 {
		return fmt.Errorf("perfmodel: hit ratios must lie in [0,1]: hc=%v hd=%v", p.HC, p.HD)
	}
	return nil
}

// Result holds the evaluated model.
type Result struct {
	T1 float64 // conventional UHM
	T2 float64 // UHM with a DTB
	T3 float64 // UHM with an instruction cache
	T4 float64 // closure-compiled organisation (reproduction extension)
	F1 float64 // (T3-T2)/T2 x 100
	F2 float64 // (T1-T2)/T2 x 100
	F3 float64 // (T2-T4)/T4 x 100
}

// Evaluate applies the symbolic §7 equations to the parameters.
//
//	T1 = s2·t2 + d + x
//	T2 = s1·tD + (1−hD)·s2·t2 + (1−hD)·(d+g) + x
//	T3 = hc·s2·tD + (1−hc)·s2·t2 + d + x
//
// plus the extension for the fully compiled organisation, where the only
// per-execution work left is one level-1 fetch of the native code and the
// semantics themselves:
//
//	T4 = t1 + x
func Evaluate(p Params) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	t1 := p.S2*p.T2Access + p.D + p.X
	t2 := p.S1*p.TDAccess + (1-p.HD)*p.S2*p.T2Access + (1-p.HD)*(p.D+p.G) + p.X
	t3 := p.HC*p.S2*p.TDAccess + (1-p.HC)*p.S2*p.T2Access + p.D + p.X
	t4 := p.T1Access + p.X
	res := Result{T1: t1, T2: t2, T3: t3, T4: t4}
	if t2 > 0 {
		res.F1 = (t3 - t2) / t2 * 100
		res.F2 = (t1 - t2) / t2 * 100
	}
	if t4 > 0 {
		res.F3 = (t2 - t4) / t4 * 100
	}
	return res, nil
}

// Published closed forms of §7 (the worked substitution the paper tabulates).

// ClosedFormF1 is the Table 2 expression: the percentage increase in the
// average DIR instruction interpretation time due to using the DTB's
// resources as a cache on the level-2 memory.
func ClosedFormF1(d, x float64) float64 {
	return (0.4 + 0.6*d) / (8 + 0.4*d + x) * 100
}

// ClosedFormF2 is the Table 3 expression printed in the paper: the percentage
// increase due to not using the DTB.
func ClosedFormF2(d, x float64) float64 {
	return (7.4 + 0.6*d) / (8 + 0.4*d + x) * 100
}

// Grid axes used by Tables 2 and 3.
var (
	// TableXValues is the x axis of both tables (semantic time).
	TableXValues = []float64{5, 10, 15, 20, 25, 30}
	// TableDValues is the d axis of both tables (decode time).
	TableDValues = []float64{10, 20, 30}
)

// Cell is one table entry.
type Cell struct {
	D, X  float64
	Value float64
}

// Table is a d × x grid of figure-of-merit values.
type Table struct {
	Name    string
	Caption string
	DValues []float64
	XValues []float64
	Cells   [][]float64 // Cells[i][j] is the value at DValues[i], XValues[j]
}

// Value returns the cell at (d, x), or false if either coordinate is not an
// axis value.
func (t *Table) Value(d, x float64) (float64, bool) {
	for i, dv := range t.DValues {
		if dv != d {
			continue
		}
		for j, xv := range t.XValues {
			if xv == x {
				return t.Cells[i][j], true
			}
		}
	}
	return 0, false
}

// Render formats the table in the layout of the paper (x across, d down).
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s. %s\n", t.Name, t.Caption)
	fmt.Fprintf(&b, "%6s |", "d \\ x")
	for _, x := range t.XValues {
		fmt.Fprintf(&b, "%8.0f", x)
	}
	b.WriteString("\n")
	b.WriteString(strings.Repeat("-", 8+8*len(t.XValues)))
	b.WriteString("\n")
	for i, d := range t.DValues {
		fmt.Fprintf(&b, "%6.0f |", d)
		for j := range t.XValues {
			fmt.Fprintf(&b, "%8.2f", t.Cells[i][j])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// buildTable evaluates the closed form over the published grid.
func buildTable(name, caption string, f func(d, x float64) float64) *Table {
	t := &Table{
		Name:    name,
		Caption: caption,
		DValues: append([]float64(nil), TableDValues...),
		XValues: append([]float64(nil), TableXValues...),
		Cells:   make([][]float64, len(TableDValues)),
	}
	for i, d := range t.DValues {
		t.Cells[i] = make([]float64, len(t.XValues))
		for j, x := range t.XValues {
			t.Cells[i][j] = f(d, x)
		}
	}
	return t
}

// Table2 regenerates Table 2 of the paper: the percentage increase in the
// average DIR instruction interpretation time due to using the DTB as a
// cache on the level-2 memory, for the published d and x grid.
func Table2() *Table {
	return buildTable("Table 2",
		"Percentage increase in the average DIR instruction interpretation time due to using the DTB as a cache on the level 2 memory",
		ClosedFormF1)
}

// Table3 regenerates Table 3 of the paper: the percentage increase due to
// not using the DTB.
func Table3() *Table {
	return buildTable("Table 3",
		"Percentage increase in the average DIR instruction interpretation time due to not using the DTB",
		ClosedFormF2)
}

// Sweep evaluates the symbolic model over a grid of d and x values using the
// nominal paper parameters, returning one Result per (d, x) pair in row-major
// order (d outer, x inner).  It backs the ablation benchmarks that vary the
// DTB and cache hit ratios.
func Sweep(dValues, xValues []float64, modify func(*Params)) ([]Cell, []Result, error) {
	var cells []Cell
	var results []Result
	for _, d := range dValues {
		for _, x := range xValues {
			p := PaperParams(d, x)
			if modify != nil {
				modify(&p)
			}
			r, err := Evaluate(p)
			if err != nil {
				return nil, nil, err
			}
			cells = append(cells, Cell{D: d, X: x, Value: r.F2})
			results = append(results, r)
		}
	}
	return cells, results, nil
}
