package core

import (
	"fmt"
	"testing"

	"repro/internal/cheri"
	"repro/internal/hostos"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// TestBuildFitsItsMachines builds every layout the repository runs —
// Table II's five, Scenario 3, Scenarios 4-10 in both modes at every
// shard count, the gate × shard composites — and checks that each
// machine, local and peer, has less than a page of memory left.
// testbed.Build derives a machine's memory as the sum of what it is about
// to place: a term missing from the sum fails the build with ENOMEM, a
// term over-counted (or slack added back, or padding left below a
// hugepage boundary) fails here. Every cVM window and cVM segment starts
// on a hugepage boundary, which gate staging and the mempools rely on.
func TestBuildFitsItsMachines(t *testing.T) {
	type layout struct {
		name  string
		build func(clk hostos.Clock) (*testbed.Bed, error)
	}
	layouts := []layout{
		{"baseline dual", NewBaselineDual},
		{"scenario 1", NewScenario1},
		{"baseline single", NewBaselineSingle},
		{"scenario 2 uncontended", func(clk hostos.Clock) (*testbed.Bed, error) { return NewScenario2(clk, 1) }},
		{"scenario 2 contended", func(clk hostos.Clock) (*testbed.Bed, error) { return NewScenario2(clk, 2) }},
		{"scenario 3", NewScenario3},
	}
	for _, capMode := range []bool{false, true} {
		mode := map[bool]string{false: "baseline", true: "cheri"}[capMode]
		add := func(name string, build func(clk hostos.Clock) (*testbed.Bed, error)) {
			layouts = append(layouts, layout{name + " " + mode, build})
		}
		add("scenario 5", func(clk hostos.Clock) (*testbed.Bed, error) {
			s, err := NewScenario5(clk, Scenario5Config{CapMode: capMode, Modern: true})
			if err != nil {
				return nil, err
			}
			return s.Bed, nil
		})
		add("scenario 7", func(clk hostos.Clock) (*testbed.Bed, error) {
			s, err := NewScenario7(clk, Scenario7Config{CapMode: capMode})
			if err != nil {
				return nil, err
			}
			return s.Bed, nil
		})
		for _, shards := range []int{1, 2, 4, 8} {
			add(fmt.Sprintf("scenario 4 x %d shards", shards), func(clk hostos.Clock) (*testbed.Bed, error) {
				return NewScenario4(clk, Scenario4Config{Shards: shards, CapMode: capMode})
			})
			add(fmt.Sprintf("scenario 6 x %d shards", shards), func(clk hostos.Clock) (*testbed.Bed, error) {
				s, err := NewScenario6(clk, Scenario6Config{Shards: shards, CapMode: capMode, Modern: true})
				if err != nil {
					return nil, err
				}
				return s.Bed, nil
			})
			add(fmt.Sprintf("scenario 8 x %d shards", shards), func(clk hostos.Clock) (*testbed.Bed, error) {
				return NewScenario8(clk, Scenario8Config{Shards: shards, CapMode: capMode})
			})
			for _, proto := range []string{"http", "dns"} {
				add(fmt.Sprintf("scenario 9 %s x %d shards", proto, shards), func(clk hostos.Clock) (*testbed.Bed, error) {
					return NewScenario9(clk, Scenario9Config{Proto: proto, Shards: shards, CapMode: capMode, Conns: shards})
				})
			}
			add(fmt.Sprintf("scenario 10 x %d shards", shards), func(clk hostos.Clock) (*testbed.Bed, error) {
				return NewScenario10(clk, Scenario10Config{Shards: shards, CapMode: capMode, Conns: shards})
			})
		}
	}
	for _, gates := range []string{layoutPlain, layoutAPIGated, layoutDevGated} {
		for _, shards := range []int{1, 2, 4} {
			layouts = append(layouts, layout{fmt.Sprintf("%s x %d shards", gates, shards), func(clk hostos.Clock) (*testbed.Bed, error) {
				return newComposedBed(clk, shards, gates, testbed.ObsSpec{})
			}})
		}
	}
	for _, l := range layouts {
		bed, err := l.build(sim.NewVClock())
		if err != nil {
			t.Errorf("%s: %v", l.name, err)
			continue
		}
		onBoundary := func(what string, base uint64) {
			if bed.Local.K.Mem.PageEnd(base) != base+cheri.HugePageSize {
				t.Errorf("%s: %s at %#x is not on a hugepage boundary", l.name, what, base)
			}
		}
		for _, e := range bed.Envs {
			if e.CVM != nil {
				onBoundary(e.Name+"'s window", e.CVM.Base())
				onBoundary(e.Name+"'s segment", e.Seg.Cap().Base())
			}
		}
		for _, a := range bed.Apps {
			onBoundary(a.App.Name+"'s window", a.App.Base())
		}
		names, machines := []string{"local"}, []*testbed.Machine{bed.Local}
		for _, p := range bed.Peers {
			names, machines = append(names, p.Env.Name), append(machines, p.M)
		}
		for i, m := range machines {
			if addr, errno := m.K.Pages.Alloc(hostos.PageSize); errno == hostos.OK {
				t.Errorf("%s: machine %s still has a free page at %#x of its %d bytes after Build", l.name, names[i], addr, m.K.Mem.Size())
			}
		}
	}
}
