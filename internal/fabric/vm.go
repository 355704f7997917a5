package fabric

import (
	"time"

	"azureobs/internal/netsim"
	"azureobs/internal/sim"
)

// VMState is the externally visible instance status, matching the status
// transitions the paper's test program polls ("stopped" → "ready"), plus the
// failed state a host crash forces (Section 5: node failures kill resident
// instances until the fabric re-acquires capacity).
type VMState int

// VMState values.
const (
	VMStopped VMState = iota
	VMStarting
	VMReady
	VMSuspending
	VMDeleted
	VMFailed
)

func (s VMState) String() string {
	switch s {
	case VMStopped:
		return "stopped"
	case VMStarting:
		return "starting"
	case VMReady:
		return "ready"
	case VMSuspending:
		return "suspending"
	case VMFailed:
		return "failed"
	default:
		return "deleted"
	}
}

// legalVMNext is the instance lifecycle state machine. Every state write goes
// through VM.setState, which checks the edge against this table when the
// engine's invariant harness is on — the chaos engine's crash/reboot paths
// are validated against exactly the same machine as the fabric controller's
// phase transitions.
var legalVMNext = map[VMState][]VMState{
	VMStopped:    {VMStarting, VMDeleted},
	VMStarting:   {VMReady, VMStopped, VMFailed}, // stopped: suspend races an in-flight start
	VMReady:      {VMStopped, VMSuspending, VMFailed},
	VMSuspending: {VMStopped},
	VMFailed:     {VMDeleted},
	VMDeleted:    {},
}

func legalVMTransition(from, to VMState) bool {
	for _, s := range legalVMNext[from] {
		if s == to {
			return true
		}
	}
	return false
}

// VM is one role instance.
type VM struct {
	Name string
	Role Role
	Size Size
	Host *Host

	state   VMState
	readyAt time.Duration // virtual time the instance last became ready
}

// State returns the instance status.
func (vm *VM) State() VMState { return vm.state }

// setState moves the instance through its lifecycle, checking the transition
// against legalVMNext when invariants are enabled.
func (vm *VM) setState(eng *sim.Engine, s VMState) {
	// Test before calling Checkf: its variadic arguments box on every call.
	if !legalVMTransition(vm.state, s) {
		eng.Invariants().Checkf(false,
			"fabric: illegal VM transition %v -> %v (%s)", vm.state, s, vm.Name)
	}
	vm.state = s
}

// ReadyAt returns when the instance last transitioned to ready.
func (vm *VM) ReadyAt() time.Duration { return vm.readyAt }

// NIC returns the network link the VM sends and receives through (the host
// GigE adapter, shared with co-located VMs).
func (vm *VM) NIC() *netsim.Link { return vm.Host.NIC }

// Execute runs CPU-bound work of nominal duration d on the VM, dilated by
// the host's compute slowdown as sampled at start. It returns the actual
// elapsed time. This dilation is what turns degradation episodes into the
// paper's "VM task execution timeouts": a 4-6x slowdown stretches a 10-min
// task past the 4x-mean kill threshold.
func (vm *VM) Execute(p *sim.Proc, d time.Duration) time.Duration {
	dilated := time.Duration(float64(d) * vm.Host.slowdown)
	p.Sleep(dilated)
	return dilated
}
