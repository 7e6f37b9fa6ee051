package api

import (
	"errors"
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	for _, req := range []Request{
		{Op: OpLabel, Program: "program p"},
		{Op: OpSimulate, Example: "fig2", Procs: MaxProcs, Capacity: 64},
		{Op: OpLabel, Base: "ab", Patches: []RegionPatch{{Region: "r", Source: "s"}}},
		{Op: OpLabel}, // no selector: the service answers it after the cache lookup
	} {
		if err := Validate(req); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", req, err)
		}
	}
	for _, c := range []struct {
		req  Request
		want string
	}{
		{Request{Example: "fig2"}, `unknown op ""`},
		{Request{Op: "relabel", Example: "fig2"}, `unknown op "relabel"`},
		{Request{Op: OpLabel, Example: "fig2", Program: "program p"}, "exactly one of program, example or base"},
		{Request{Op: OpLabel, Program: "program p", Patches: []RegionPatch{{Region: "r"}}}, "patches require a base"},
		{Request{Op: OpSimulate, Example: "fig2", Capacity: -1}, "non-negative"},
		{Request{Op: OpSimulate, Example: "fig2", Procs: MaxProcs + 1}, "at most 1024"},
	} {
		err := Validate(c.req)
		if !errors.Is(err, ErrBadRequest) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%+v) = %v, want a bad request mentioning %q", c.req, err, c.want)
		}
	}
}

// KeyOf must separate every request whose answer can differ, and no two
// selectors may alias.
func TestKeyOfSeparatesRequests(t *testing.T) {
	base := Request{Op: OpLabel, Program: "program p"}
	if KeyOf(base) != KeyOf(base) {
		t.Fatal("equal requests have different keys")
	}
	distinct := []Request{
		base,
		{Op: OpSimulate, Program: "program p"},
		{Op: OpLabel, Program: "program p", Deps: true},
		{Op: OpLabel, Program: "program p", Procs: 4},
		{Op: OpLabel, Program: "program p", Capacity: 4},
		{Op: OpLabel, Program: "program q"},
		{Op: OpLabel, Example: "program p"},
		{Op: OpLabel, Base: "program p"},
		{Op: OpLabel, Base: "b", Patches: []RegionPatch{{Region: "ab", Source: "c"}}},
		{Op: OpLabel, Base: "b", Patches: []RegionPatch{{Region: "a", Source: "bc"}}},
		{Op: OpLabel, Base: "b", Patches: []RegionPatch{{Region: "a", Source: "b"}, {Region: "c", Source: ""}}},
	}
	seen := map[Key]int{}
	for i, req := range distinct {
		if j, ok := seen[KeyOf(req)]; ok {
			t.Errorf("requests %d and %d share a key: %+v, %+v", j, i, distinct[j], req)
		}
		seen[KeyOf(req)] = i
	}
}

// Selector names the program alone: requests that differ only in
// operation or parameters share it, and the program, example and delta
// selector domains never do.
func TestSelectorNamesTheProgramAlone(t *testing.T) {
	base := KeyOf(Request{Op: OpSimulate, Program: "fig2"}).Selector()
	for _, req := range []Request{
		{Op: OpLabel, Program: "fig2"},
		{Op: OpSimulate, Program: "fig2", Deps: true, Procs: 8, Capacity: 64},
	} {
		if KeyOf(req).Selector() != base {
			t.Errorf("%+v: selector differs from the same program's", req)
		}
	}
	for _, req := range []Request{
		{Op: OpSimulate, Example: "fig2"},
		{Op: OpSimulate, Base: "fig2"},
		{Op: OpSimulate, Program: "fig2 "},
	} {
		if KeyOf(req).Selector() == base {
			t.Errorf("%+v: shares the selector of program text %q", req, "fig2")
		}
	}
}
