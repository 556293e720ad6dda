package testbed

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/fstack"
	"repro/internal/sim"
)

// composeMatrix is every way the builder composes a compartment — a
// process or a cVM; no gate, API gates or device gates; a single stack
// or 1, 2 or 4 shards — alone on its port, beside a second compartment
// (before or after it in the spec, sharded when it is not), and with
// the peers in port order, reversed, or missing from one port.
func composeMatrix() map[string]Spec {
	comp := func(name string, port int, cvm bool, gate string, shards int) CompartmentSpec {
		cs := CompartmentSpec{Name: name, CVM: cvm, Ifs: []IfSpec{{Port: port}}}
		switch gate {
		case "api":
			cs.APIGate, cs.AppCVMs = true, []string{name + "-app"}
		case "dev":
			cs.DeviceGate = true
		}
		if shards > 0 {
			cs.SegBytes, cs.PoolBufs = 16<<20, 3072
			cs.Stack = StackSpec{Shards: shards, RingSize: 256}
		}
		return cs
	}
	spec := func(peers []int, comps ...CompartmentSpec) Spec {
		s := Spec{Machine: MachineSpec{Name: "morello", Ports: 2}, Compartments: comps}
		for _, p := range peers {
			s.Peers = append(s.Peers, PeerSpec{Port: p})
		}
		return s
	}
	out := map[string]Spec{}
	for _, cvm := range []bool{false, true} {
		for _, gate := range []string{"none", "api", "dev"} {
			if gate != "none" && !cvm {
				continue
			}
			for _, shards := range []int{0, 1, 2, 4} {
				name := fmt.Sprintf("cvm=%v/gate=%s/shards=%d", cvm, gate, shards)
				c := comp("c0", 0, cvm, gate, shards)
				other := comp("c1", 1, cvm, "none", 0)
				out[name+"/alone"] = spec([]int{0}, c)
				out[name+"/first"] = spec([]int{0, 1}, c, other)
				out[name+"/second"] = spec([]int{1, 0}, other, c)
				out[name+"/peerless_port"] = spec([]int{1}, c, other)
				if shards == 0 { // one sharded compartment per bed
					out[name+"/sharded_neighbour"] = spec([]int{1, 0}, comp("c1", 1, cvm, "none", 2), c)
				}
			}
		}
	}
	return out
}

// TestLoopsListEveryStackOnce pins Bed.Loops: each compartment's Stacks
// in spec order, then each peer's, every stack once, and each peer's
// near/far indexes naming the loops that poll its local port and its
// own.
func TestLoopsListEveryStackOnce(t *testing.T) {
	for name, spec := range composeMatrix() {
		t.Run(name, func(t *testing.T) {
			spec.Clk = sim.NewVClock()
			bed, err := Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			var want []*fstack.Stack
			owner := map[*fstack.Stack]int{} // stack -> compartment index
			for i, e := range bed.Envs {
				stacks := e.Stacks()
				if n := spec.Compartments[i].Stack.Shards; n > 0 {
					if e.Stk != nil || !slices.Equal(stacks, e.Sharded.Shards()) || len(stacks) != n {
						t.Fatalf("%s: Stacks() is not its %d shards", e.Name, n)
					}
				} else if len(stacks) != 1 || stacks[0] != e.Stk || e.Sharded != nil {
					t.Fatalf("%s: Stacks() is not [Stk]", e.Name)
				}
				for _, stk := range stacks {
					owner[stk] = i
				}
				want = append(want, stacks...)
			}
			for _, p := range bed.Peers {
				want = append(want, p.Env.Stacks()...)
			}
			loops := bed.Loops()
			if !slices.Equal(loops, want) {
				t.Fatalf("Loops() = %v, want the compartments' stacks then the peers'", loops)
			}
			seen := map[*fstack.Stack]bool{}
			for _, l := range loops {
				if l == nil || seen[l] {
					t.Fatalf("Loops() lists %v twice or nil", l)
				}
				seen[l] = true
			}
			for j, p := range bed.Peers {
				if p.Port != spec.Peers[j].Port || loops[p.far] != p.Env.Stk {
					t.Fatalf("peer %d: far %d is not its own stack", j, p.far)
				}
				var near []int
				for k, l := range loops {
					i, local := owner[l]
					if local && spec.Compartments[i].Ifs[0].Port == p.Port {
						near = append(near, k)
					}
				}
				if !slices.Equal(p.near, near) {
					t.Fatalf("peer on port %d: near %v, want %v", p.Port, p.near, near)
				}
			}
		})
	}
}
