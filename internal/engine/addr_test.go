package engine

import (
	"math"
	"math/rand"
	"testing"

	"refidem/internal/idem"
	"refidem/internal/ir"
	"refidem/internal/vm"
)

// Addr is the address rule written out once more, subscript by subscript,
// as the oracle of the index the VM compiles into its loads and stores:
// subs are the evaluated subscript values; each is wrapped modulo its
// dimension so synthetic programs can never leave the variable's storage.
// privateHere selects frame addressing (the variable is private in the
// executing region), and slot picks the frame (the processor).
func (l *Layout) Addr(v *ir.Var, subs []int64, privateHere bool, slot int) int64 {
	var idx int64
	for i, d := range v.Dims {
		s := subs[i] % int64(d)
		if s < 0 {
			s += int64(d)
		}
		idx = idx*int64(d) + s
	}
	if privateHere {
		if slot < 0 || slot >= l.Slots {
			slot = 0
		}
		return l.SharedSize + int64(slot)*l.FrameSize + l.PrivOffset[v] + idx
	}
	return l.Base[v] + idx
}

// TestVMIndexMatchesLayoutAddr holds the element index a compiled load
// and store report, placed by the runners, to the Layout.Addr oracle: 1
// to 3 dimensions of power-of-two and other extents, subscripts in range,
// negative, past the end and anywhere in int64, shared and in a private
// frame.
func TestVMIndexMatchesLayoutAddr(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	extents := []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 64, 100}
	edges := []int64{0, -1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	for trial := 0; trial < 600; trial++ {
		dims := make([]int, 1+trial%3)
		for i := range dims {
			dims[i] = extents[rng.Intn(len(extents))]
		}
		p := ir.NewProgram("addr")
		p.AddVar("pad", 3)
		a := p.AddVar("a", dims...)
		subs := make([]int64, len(dims))
		exprs := make([]ir.Expr, len(dims))
		for i, d := range dims {
			switch rng.Intn(5) {
			case 0:
				subs[i] = rng.Int63n(int64(d))
			case 1:
				subs[i] = -1 - rng.Int63n(1000)
			case 2:
				subs[i] = int64(d) + rng.Int63n(1000)
			case 3:
				subs[i] = int64(rng.Uint64())
			default:
				subs[i] = edges[rng.Intn(len(edges))]
			}
			exprs[i] = ir.C(subs[i])
		}
		r := &ir.Region{Name: "r", Kind: ir.LoopRegion, Index: "k", From: 0, To: 1, Step: 1,
			Segments: []*ir.Segment{{ID: 0, Body: []ir.Stmt{
				&ir.Assign{LHS: ir.Wr(a, exprs...), RHS: ir.Rd(a, exprs...)},
			}}}}
		r.Ann.Private = map[string]bool{"a": trial%2 == 1}
		r.Finalize()
		p.AddRegion(r)
		labs := idem.LabelProgram(p)
		const slots = 3
		l := NewLayout(p, labs, slots)
		private := labs[r].Info.Private(a)
		if private != (trial%2 == 1) {
			t.Fatalf("trial %d: a private = %v", trial, private)
		}
		sr := &specRunner{sharedSize: l.SharedSize, frameSize: l.FrameSize}
		md := &refMeta{private: private, base: l.Base[a]}
		if private {
			md.base = l.PrivOffset[a]
		}
		m := vm.NewMachine(vm.Compile(r.Segments[0], r.Index), 0)
		for _, kind := range []vm.EventKind{vm.EvLoad, vm.EvStore} {
			ev, _ := m.Step()
			if ev.Kind != kind {
				t.Fatalf("trial %d: event %v, want %v", trial, ev.Kind, kind)
			}
			if got, want := l.Base[a]+ev.Index, l.Addr(a, subs, false, 0); got != want {
				t.Fatalf("trial %d: a%v over %v: shared address %d, oracle %d", trial, subs, dims, got, want)
			}
			for slot := 0; slot < slots; slot++ {
				got := sr.addrOf(&instance{proc: slot}, md, ev.Index)
				if want := l.Addr(a, subs, private, slot); got != want {
					t.Fatalf("trial %d: a%v over %v private=%v slot %d: address %d, oracle %d",
						trial, subs, dims, private, slot, got, want)
				}
			}
			if kind == vm.EvLoad {
				m.ResumeLoad(0)
			}
		}
	}
}
