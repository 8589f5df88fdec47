package expr

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"qpipe/internal/tuple"
)

func sumOf(kind AggKind, xs []float64) *AggState {
	s := NewAggState(AggSpec{Kind: kind, Arg: Col(0)})
	for _, x := range xs {
		s.Add(tuple.Tuple{tuple.F64(x)})
	}
	return s
}

// mergeTree sums xs over a random partition/merge tree: split anywhere,
// aggregate the parts apart, merge them in either order.
func mergeTree(rng *rand.Rand, kind AggKind, xs []float64) *AggState {
	if len(xs) < 2 || rng.Intn(4) == 0 {
		return sumOf(kind, xs)
	}
	cut := 1 + rng.Intn(len(xs)-1)
	l, r := mergeTree(rng, kind, xs[:cut]), mergeTree(rng, kind, xs[cut:])
	if rng.Intn(2) == 0 {
		l, r = r, l
	}
	l.Merge(r)
	return l
}

// exactSum rounds the exact sum once, through big.Float.
func exactSum(xs []float64) float64 {
	acc := new(big.Float).SetPrec(4096)
	for _, x := range xs {
		acc.Add(acc, new(big.Float).SetPrec(4096).SetFloat64(x))
	}
	f, _ := acc.Float64()
	return f
}

// SUM and AVG have one bit pattern whatever the order of the addends and
// whatever tree of partial states they were merged through: parallel
// aggregation and circular scans promise no order.
func TestSumDoesNotDependOnOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(20260930))
	draws := []func() float64{
		func() float64 { return float64(rng.Intn(100000)) / 100 },                            // prices
		func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-10)) }, // cancelling magnitudes
		func() float64 { return []float64{1e16, 1, -1e16, 1e-16, 0.1, -0.3}[rng.Intn(6)] },
	}
	for round := 0; round < 40; round++ {
		xs := make([]float64, 1+rng.Intn(400))
		for i := range xs {
			xs[i] = draws[round%len(draws)]()
		}
		want := exactSum(xs)
		wantAvg := want / float64(len(xs))
		for shuffle := 0; shuffle < 25; shuffle++ { // 40 x 25 = 1 000 shuffles
			rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
			for _, s := range []*AggState{sumOf(AggSum, xs), mergeTree(rng, AggSum, xs)} {
				if got := s.Result().F; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("round %d: SUM = %v (%#x), the exact sum rounds to %v (%#x)",
						round, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
			for _, s := range []*AggState{sumOf(AggAvg, xs), mergeTree(rng, AggAvg, xs)} {
				if got := s.Result().F; math.Float64bits(got) != math.Float64bits(wantAvg) {
					t.Fatalf("round %d: AVG = %v, want %v", round, got, wantAvg)
				}
			}
		}
	}
}

func TestSumSpecialValues(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{1, inf, 2}, inf},
		{[]float64{inf, -inf}, math.NaN()},
		{[]float64{1, math.NaN(), inf}, math.NaN()},
		{[]float64{math.MaxFloat64, math.MaxFloat64}, inf},
		{[]float64{-math.MaxFloat64, -math.MaxFloat64, 5}, -inf},
	} {
		for _, s := range []*AggState{sumOf(AggSum, tc.xs), mergeTree(rand.New(rand.NewSource(1)), AggSum, tc.xs)} {
			got := s.Result().F
			if math.IsNaN(tc.want) != math.IsNaN(got) || (!math.IsNaN(got) && got != tc.want) {
				t.Errorf("SUM%v = %v, want %v", tc.xs, got, tc.want)
			}
		}
	}
}

// An aggregate does its own kind's work: integer-valued sums stay one
// partial, and nothing allocates per row.
func TestAggStateAddAllocatesNothing(t *testing.T) {
	row := tuple.Tuple{tuple.F64(42)}
	for _, kind := range []AggKind{AggCount, AggSum, AggMin, AggMax, AggAvg} {
		s := NewAggState(AggSpec{Kind: kind, Arg: Col(0)})
		if n := testing.AllocsPerRun(1000, func() { s.Add(row) }); n != 0 {
			t.Errorf("%v: Add allocates %v times per row", kind, n)
		}
	}
}

func TestMinMaxKeepTheirOwnExtreme(t *testing.T) {
	rows := []tuple.Tuple{{tuple.I64(3)}, {tuple.I64(-7)}, {tuple.F64(9.5)}, {tuple.I64(-7)}, {tuple.I64(9)}}
	lo, hi := NewAggState(AggSpec{Kind: AggMin, Arg: Col(0)}), NewAggState(AggSpec{Kind: AggMax, Arg: Col(0)})
	lo2, hi2 := NewAggState(AggSpec{Kind: AggMin, Arg: Col(0)}), NewAggState(AggSpec{Kind: AggMax, Arg: Col(0)})
	for i, r := range rows {
		if i%2 == 0 {
			lo.Add(r)
			hi.Add(r)
		} else {
			lo2.Add(r)
			hi2.Add(r)
		}
	}
	lo.Merge(lo2)
	hi.Merge(hi2)
	lo.Merge(NewAggState(AggSpec{Kind: AggMin, Arg: Col(0)})) // an empty partial changes nothing
	if lo.Result() != tuple.I64(-7) || hi.Result() != tuple.F64(9.5) {
		t.Fatalf("min %v max %v", lo.Result(), hi.Result())
	}
}

// An accumulator fed encoded values, or a row count, ends in the state Add
// leaves it in — whatever the kinds, NaNs, infinities and strings included.
func TestAddEncodedIsAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(20261003))
	draw := func() tuple.Value {
		switch rng.Intn(8) {
		case 0:
			return tuple.F64([]float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e300}[rng.Intn(5)])
		case 1:
			return tuple.Str([]string{"", "a", "ab", "b"}[rng.Intn(4)])
		case 2:
			return tuple.Date(int64(rng.Intn(9) - 4))
		case 3, 4:
			return tuple.I64(int64(rng.Intn(9) - 4))
		default:
			return tuple.F64(float64(rng.Intn(4000)-2000) / 7)
		}
	}
	for round := 0; round < 2000; round++ {
		vals := make([]tuple.Value, rng.Intn(12))
		for i := range vals {
			vals[i] = draw()
		}
		for _, kind := range []AggKind{AggCount, AggSum, AggMin, AggMax, AggAvg} {
			rows, enc := NewAggState(AggSpec{Kind: kind, Arg: Col(0)}), NewAggState(AggSpec{Kind: kind, Arg: Col(0)})
			for _, v := range vals {
				rows.Add(tuple.Tuple{v})
				enc.AddEncoded(append(tuple.Tuple{v}.Encode(nil), 0x7f)) // trailing bytes: the rest of a row
			}
			got, want := enc.Result(), rows.Result()
			if got.K != want.K || got.I != want.I || got.S != want.S || math.Float64bits(got.F) != math.Float64bits(want.F) {
				t.Fatalf("%v over %v: fed encoded %#v, fed rows %#v", kind, vals, got, want)
			}
		}
		star, counted := NewAggState(AggSpec{Kind: AggCount}), NewAggState(AggSpec{Kind: AggCount})
		for range vals {
			star.Add(nil)
		}
		counted.AddCount(int64(len(vals)))
		if star.Result() != counted.Result() {
			t.Fatalf("count(*) of %d rows: AddCount says %v", len(vals), counted.Result())
		}
	}
	s, b := NewAggState(AggSpec{Kind: AggMax, Arg: Col(0)}), tuple.Tuple{tuple.Str("kept where it lies")}.Encode(nil)
	s.AddEncoded(b)
	if n := testing.AllocsPerRun(100, func() { s.AddEncoded(b) }); n != 0 {
		t.Fatalf("AddEncoded of a string that is no new extreme allocates %v times", n)
	}
}

// AddNumbers, a page's selection in one call, leaves every accumulator in the
// state a loop of AddNumber leaves it in, bit for bit, and so does every
// Result and Merge after it: COUNT, SUM, AVG, MIN and MAX, scalar and keyed,
// over INT, DATE and FLOAT vectors — integer-valued floats, fractions that
// make a sum inexact in the middle of a run of one group's rows, infinities,
// NaNs and sums that overflow — and a selection handed over in two calls, the
// second starting where the first left the sum inexact.
func TestAddNumbersIsAddNumber(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, math.Copysign(0, -1)}
	draw := func(k tuple.Kind, fractions bool) uint64 {
		switch {
		case k != tuple.KindFloat && rng.Intn(8) == 0:
			return uint64(int64(1)<<62 + int64(rng.Intn(5)) - 2) // rounds as a float
		case k != tuple.KindFloat:
			return uint64(int64(rng.Intn(2000) - 1000))
		case rng.Intn(16) == 0:
			return math.Float64bits(special[rng.Intn(len(special))])
		case fractions && rng.Intn(3) == 0:
			return math.Float64bits(float64(rng.Intn(2000)-1000) / 7)
		default:
			return math.Float64bits(float64(rng.Intn(2000) - 1000))
		}
	}
	show := func(s *AggState) string {
		r := s.Result()
		return fmt.Sprintf("%#v %#x", *s, math.Float64bits(r.F)) + r.String()
	}
	kinds := []tuple.Kind{tuple.KindInt, tuple.KindDate, tuple.KindFloat}
	for round := 0; round < 3000; round++ {
		k, n := kinds[round%3], rng.Intn(80)
		vec, turn := make([]uint64, n), rng.Intn(n+1) // fractions from row turn on
		for i := range vec {
			vec[i] = draw(k, i >= turn)
		}
		var rows []int32
		for r := range n {
			if rng.Intn(4) != 0 {
				rows = append(rows, int32(r))
			}
		}
		ngroups := 1 + 2*(round/3%2) // scalar, then keyed
		groups := make([]int32, len(rows))
		for i := range groups {
			if i > 0 && rng.Intn(3) != 0 {
				groups[i] = groups[i-1] // runs of one group
			} else {
				groups[i] = int32(rng.Intn(ngroups))
			}
		}
		cut := rng.Intn(len(rows) + 1)
		for _, spec := range []AggSpec{{Kind: AggCount}, {Kind: AggCount, Arg: Col(0)}, {Kind: AggSum, Arg: Col(0)},
			{Kind: AggAvg, Arg: Col(0)}, {Kind: AggMin, Arg: Col(0)}, {Kind: AggMax, Arg: Col(0)}} {
			column, loop := make([][]*AggState, ngroups), make([][]*AggState, ngroups)
			for g := range ngroups {
				column[g] = []*AggState{NewAggState(AggSpec{Kind: AggCount}), NewAggState(spec)}
				loop[g] = []*AggState{NewAggState(AggSpec{Kind: AggCount}), NewAggState(spec)}
			}
			AddNumbers(column, 1, groups[:cut], k, vec, rows[:cut])
			AddNumbers(column, 1, groups[cut:], k, vec, rows[cut:])
			for i, r := range rows {
				loop[groups[i]][1].AddNumber(k, vec[r])
			}
			for g := range ngroups {
				if got, want := show(column[g][1]), show(loop[g][1]); got != want || column[g][0].count != 0 {
					t.Fatalf("round %d, %v of group %d over %v %v: AddNumbers left\n%s\na loop of AddNumber\n%s", round, spec.Signature(), g, k, vec, got, want)
				}
				// Merged into an accumulator that holds something already.
				into, held := [2]*AggState{NewAggState(spec), NewAggState(spec)}, uint64(3)
				if k == tuple.KindFloat {
					held = math.Float64bits(0.1)
				}
				for _, s := range into {
					s.AddNumber(k, held)
				}
				into[0].Merge(column[g][1])
				into[1].Merge(loop[g][1])
				if got, want := show(into[0]), show(into[1]); got != want {
					t.Fatalf("round %d, %v of group %d: merged, AddNumbers's gives\n%s\na loop's\n%s", round, spec.Signature(), g, got, want)
				}
			}
		}
	}
}
