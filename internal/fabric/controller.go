package fabric

import (
	"errors"
	"fmt"
	"time"

	"azureobs/internal/sim"
	"azureobs/internal/simrand"
)

// Fabric controller errors.
var (
	// ErrQuotaExceeded is returned when a deployment would exceed the
	// account's core quota.
	ErrQuotaExceeded = errors.New("fabric: core quota exceeded")
	// ErrAddUnsupported is returned for the Add phase on extra-large
	// deployments (reported N/A in Table 1).
	ErrAddUnsupported = errors.New("fabric: add instances unsupported for this size")
	// ErrStartupFailed is the 2.6%-probability VM startup failure.
	ErrStartupFailed = errors.New("fabric: VM startup failed")
	// ErrBadState is returned when a phase is requested in the wrong
	// deployment state.
	ErrBadState = errors.New("fabric: deployment in wrong state for request")
)

// DeploymentState tracks the coarse deployment lifecycle.
type DeploymentState int

// DeploymentState values.
const (
	DeploymentCreated DeploymentState = iota
	DeploymentRunning
	DeploymentSuspended
	DeploymentDeleted
)

// DeploymentSpec describes a new cloud deployment.
type DeploymentSpec struct {
	Name      string
	Role      Role
	Size      Size
	Instances int
	// PackageMB is the application package size; the create phase scales
	// with it (Section 4.1 observation 5).
	PackageMB float64
}

// Deployment is a created application deployment and its role instances.
type Deployment struct {
	Spec  DeploymentSpec
	state DeploymentState
	vms   []*VM
}

// State returns the deployment state.
func (d *Deployment) State() DeploymentState { return d.state }

// VMs returns the deployment's instances (empty until the run phase).
func (d *Deployment) VMs() []*VM { return d.vms }

// ReadyTimes returns each instance's last ready transition, in instance
// order — the harness uses this for the first-vs-fourth instance lag stats.
func (d *Deployment) ReadyTimes() []time.Duration {
	out := make([]time.Duration, len(d.vms))
	for i, vm := range d.vms {
		out[i] = vm.readyAt
	}
	return out
}

// Controller is the fabric controller: the management-API backend that
// creates, starts, grows, suspends and deletes deployments.
type Controller struct {
	dc           *Datacenter
	rng          *simrand.RNG
	seq          int
	used         int // cores in use
	replacements int // crash-replacement VMs provisioned
	// Quota is the account core limit; the CTP default is CoreQuota (20).
	// The paper's storage experiments ran under a raised research quota.
	Quota int
}

// NewController creates a controller over the datacenter with the default
// 20-core account quota.
func NewController(dc *Datacenter) *Controller {
	return &Controller{dc: dc, rng: dc.rng.Fork("controller"), Quota: CoreQuota}
}

// CreateDeployment uploads and creates a deployment (the "create" phase),
// blocking the caller for the deployment time. Instances exist but are
// stopped afterwards.
func (c *Controller) CreateDeployment(p *sim.Proc, spec DeploymentSpec) (*Deployment, error) {
	if spec.Instances <= 0 {
		spec.Instances = spec.Size.DefaultInstances()
	}
	if spec.PackageMB <= 0 {
		spec.PackageMB = defaultPackageMB
	}
	// Compared by division: a huge instance count must not overflow past
	// the quota.
	if spec.Instances > (c.Quota-c.used)/spec.Size.Cores() {
		return nil, fmt.Errorf("%w: need %d instances of %d cores, %d in use, quota %d",
			ErrQuotaExceeded, spec.Instances, spec.Size.Cores(), c.used, c.Quota)
	}
	c.used += spec.Instances * spec.Size.Cores()
	stats := Params(spec.Role, spec.Size)
	dur := stats.Create.Dist().Sample(c.rng) + createSecPerMB*(spec.PackageMB-defaultPackageMB)
	if dur < 1 {
		dur = 1
	}
	p.Sleep(secs(dur))
	d := &Deployment{Spec: spec, state: DeploymentCreated}
	for i := 0; i < spec.Instances; i++ {
		d.vms = append(d.vms,
			c.dc.newVM(fmt.Sprintf("%s/%d", spec.Name, i), spec.Role, spec.Size, VMStopped))
	}
	c.seq++
	return d, nil
}

// RunDeployment starts all instances (the "run" phase) and blocks until the
// last becomes ready. The first instance readiness is sampled from the
// Table 1 run distribution; subsequent instances trail by the observed
// 60-100 s inter-instance lag (Section 4.1 observation 3: Azure does not
// serve a request for multiple VMs at the same time). With probability 2.6%
// the phase fails (Section 4.1: VM startup failure rate).
func (c *Controller) RunDeployment(p *sim.Proc, d *Deployment) error {
	if d.state != DeploymentCreated && d.state != DeploymentSuspended {
		return fmt.Errorf("%w: run in state %d", ErrBadState, d.state)
	}
	stats := Params(d.Spec.Role, d.Spec.Size)
	if c.rng.Hit(startupFailureRate) {
		// The failed startup burns a run-scale amount of wall clock before
		// the fabric reports it.
		p.Sleep(secs(simrand.Uniform{Lo: stats.Run.Avg, Hi: 3 * stats.Run.Avg}.Sample(c.rng)))
		return ErrStartupFailed
	}
	eng := p.Engine()
	for _, vm := range d.vms {
		vm.setState(eng, VMStarting)
	}
	at := stats.Run.Dist().Sample(c.rng) // first instance readiness
	var last time.Duration
	for i, vm := range d.vms {
		vm := vm
		if i > 0 {
			at += simrand.Uniform{Lo: instanceLagLoSec, Hi: instanceLagHiSec}.Sample(c.rng)
		}
		ready := p.Now() + secs(at)
		last = ready
		eng.Schedule(ready, func() {
			// A chaos host crash may have failed the instance mid-start; the
			// pending ready transition then dies with it.
			if vm.state != VMStarting {
				return
			}
			vm.setState(eng, VMReady)
			vm.readyAt = ready
		})
	}
	// Block until the last instance's ready transition has landed.
	p.SleepUntil(last)
	p.Yield()
	d.state = DeploymentRunning
	return nil
}

// AddInstances grows a running deployment by n instances (the "add" phase)
// and blocks until the new instances are ready. Table 1 reports this phase
// N/A for extra-large deployments.
func (c *Controller) AddInstances(p *sim.Proc, d *Deployment, n int) error {
	if d.state != DeploymentRunning {
		return fmt.Errorf("%w: add in state %d", ErrBadState, d.state)
	}
	stats := Params(d.Spec.Role, d.Spec.Size)
	if !stats.HasAdd() {
		return ErrAddUnsupported
	}
	if n > (c.Quota-c.used)/d.Spec.Size.Cores() {
		return fmt.Errorf("%w: need %d more instances of %d cores, %d in use, quota %d",
			ErrQuotaExceeded, n, d.Spec.Size.Cores(), c.used, c.Quota)
	}
	cores := n * d.Spec.Size.Cores()
	c.used += cores
	if c.rng.Hit(startupFailureRate) {
		p.Sleep(secs(simrand.Uniform{Lo: stats.Add.Avg, Hi: 2 * stats.Add.Avg}.Sample(c.rng)))
		c.used -= cores
		return ErrStartupFailed
	}
	// The last new instance lands at the sampled phase duration; earlier
	// ones are lag-spaced before it.
	total := stats.Add.Dist().Sample(c.rng)
	if total < 1 {
		total = 1
	}
	offsets := make([]float64, n)
	at := total
	for i := n - 1; i >= 0; i-- {
		offsets[i] = at
		at -= simrand.Uniform{Lo: instanceLagLoSec, Hi: instanceLagHiSec}.Sample(c.rng)
		if at < 1 {
			at = 1
		}
	}
	base := p.Now()
	eng := p.Engine()
	for i := 0; i < n; i++ {
		vm := c.dc.newVM(fmt.Sprintf("%s/%d", d.Spec.Name, len(d.vms)),
			d.Spec.Role, d.Spec.Size, VMStopped)
		vm.setState(eng, VMStarting)
		d.vms = append(d.vms, vm)
		ready := base + secs(offsets[i])
		eng.Schedule(ready, func() {
			if vm.state != VMStarting {
				return
			}
			vm.setState(eng, VMReady)
			vm.readyAt = ready
		})
	}
	p.SleepUntil(base + secs(total))
	p.Yield()
	d.Spec.Instances += n // keep the quota release on delete consistent
	return nil
}

// SuspendDeployment stops all instances (the "suspend" phase).
func (c *Controller) SuspendDeployment(p *sim.Proc, d *Deployment) error {
	if d.state != DeploymentRunning {
		return fmt.Errorf("%w: suspend in state %d", ErrBadState, d.state)
	}
	stats := Params(d.Spec.Role, d.Spec.Size)
	p.Sleep(secs(stats.Suspend.Dist().Sample(c.rng)))
	for _, vm := range d.vms {
		// Crash-failed instances stay failed through suspend; everything
		// else stops.
		if vm.state != VMFailed {
			vm.setState(p.Engine(), VMStopped)
		}
	}
	d.state = DeploymentSuspended
	return nil
}

// DeleteDeployment removes the deployment (the "delete" phase) and releases
// its quota.
func (c *Controller) DeleteDeployment(p *sim.Proc, d *Deployment) error {
	if d.state != DeploymentSuspended && d.state != DeploymentCreated {
		return fmt.Errorf("%w: delete in state %d", ErrBadState, d.state)
	}
	stats := Params(d.Spec.Role, d.Spec.Size)
	p.Sleep(secs(stats.Delete.Dist().Sample(c.rng)))
	for _, vm := range d.vms {
		vm.setState(p.Engine(), VMDeleted)
		vm.Host.detach(vm)
	}
	d.state = DeploymentDeleted
	c.used -= d.Spec.Instances * d.Spec.Size.Cores()
	return nil
}

// CoresInUse returns the account's current core consumption.
func (c *Controller) CoresInUse() int { return c.used }

// ReadyFleet provisions n already-ready VMs outside any quota, bypassing the
// startup phases. The paper's storage experiments ran against long-lived
// worker fleets whose startup is not part of the measurement; this helper
// gives experiments that steady state directly.
func (c *Controller) ReadyFleet(n int, role Role, size Size) []*VM {
	vms := make([]*VM, n)
	for i := range vms {
		vms[i] = c.dc.newVM(fmt.Sprintf("fleet/%d", i), role, size, VMReady)
	}
	return vms
}

// ReplacementVM provisions one ready instance to replace a crash-failed
// fleet member (the fabric "re-acquiring" capacity after a node failure,
// Section 5). Replacement names carry their own counter so original fleet
// naming — and hence every chaos-free trace — is untouched.
func (c *Controller) ReplacementVM(role Role, size Size) *VM {
	vm := c.dc.newVM(fmt.Sprintf("fleet/r%d", c.replacements), role, size, VMReady)
	c.replacements++
	return vm
}

// secs converts float seconds to a duration.
func secs(s float64) time.Duration {
	if s < 0 {
		s = 0
	}
	return time.Duration(s * float64(time.Second))
}
