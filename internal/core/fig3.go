package core

import (
	"fmt"

	"repro/internal/cheri"
	"repro/internal/sim"
)

// Fig3Report is the outcome of the compartmentalization-violation
// experiment (paper Fig. 3): an application modified "to access memory
// ranges outside their valid boundaries".
type Fig3Report struct {
	// Fault is the CHERI exception the attacker received.
	Fault *cheri.Fault
	// AttackerState is the attacker cVM's state afterwards.
	AttackerState string
	// VictimUnaffected reports that the victim cVM kept running and its
	// memory kept its integrity.
	VictimUnaffected bool
	// Leaked is what the attacker managed to read (must be empty).
	Leaked []byte
}

// String renders the report like the paper's console excerpt, and
// what the attacker read when it read anything.
func (r Fig3Report) String() string {
	s := fmt.Sprintf("attacker: %v (state=%v); victim unaffected: %v",
		r.Fault, r.AttackerState, r.VictimUnaffected)
	if len(r.Leaked) > 0 {
		s += fmt.Sprintf("; attacker read %q", r.Leaked)
	}
	return s
}

// RunFig3 reproduces Fig. 3 on a Scenario 1 layout: cVM2's application
// dereferences addresses inside cVM1's window; CHERI answers with a
// capability out-of-bounds exception and cVM1 is untouched.
func RunFig3() (Fig3Report, error) {
	s, err := NewScenario1(sim.NewVClock())
	if err != nil {
		return Fig3Report{}, err
	}
	victim := s.Envs[0].CVM
	attacker := s.Envs[1].CVM

	// The victim stores a secret in its window.
	secret := []byte("flight-plan: do-not-leak")
	if err := victim.Store(victim.Base()+0x40, secret); err != nil {
		return Fig3Report{}, err
	}

	// The attacker tries a direct load of the victim's memory through
	// its own DDC — the modified application of §IV.
	leak := make([]byte, len(secret))
	rep := Fig3Report{}
	err = attacker.Load(victim.Base()+0x40, leak)
	if f, ok := err.(*cheri.Fault); ok {
		rep.Fault = f
	} else if err == nil {
		rep.Leaked = leak
	}
	rep.AttackerState = attacker.State()

	// The attacker also tries to derive a capability that would reach
	// outside its window (monotonicity stops it before any access).
	if _, err := attacker.DeriveBuf(victim.Base(), 16); err == nil {
		rep.Leaked = append(rep.Leaked, '!')
	}

	// The victim must be alive and intact.
	got := make([]byte, len(secret))
	if err := victim.Load(victim.Base()+0x40, got); err == nil &&
		string(got) == string(secret) && !victim.Trapped() {
		rep.VictimUnaffected = true
	}
	return rep, nil
}
