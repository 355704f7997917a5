package wire

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"azureobs/internal/fabric"
	"azureobs/internal/sim"
	"azureobs/internal/storage/storerr"
)

// deploySpec is the parsed form of a deployment request.
type deploySpec struct {
	name      string
	role      fabric.Role
	size      fabric.Size
	instances int
	packageMB float64
}

// operation is one long-running Service Management operation. The paper's
// Section 4.1 deployment phases run minutes of virtual time, so lifecycle
// calls answer 202 immediately and clients poll /operations/<id> — the
// classic x-ms-request-id flow.
type operation struct {
	id     string
	status string // "InProgress", "Succeeded", "Failed"
	code   string // wire code when Failed
	msg    string
}

// mgmtState tracks operations and deployments. The ops map is read by HTTP
// poll handlers outside the gate, hence the mutex; deployments are
// engine-side only.
type mgmtState struct {
	mu     sync.Mutex
	ops    map[string]*operation
	nextOp int

	deps map[string]*fabric.Deployment
}

func newMgmtState() *mgmtState {
	return &mgmtState{
		ops:  make(map[string]*operation),
		deps: make(map[string]*fabric.Deployment),
	}
}

func (m *mgmtState) newOp() *operation {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextOp++
	o := &operation{id: fmt.Sprintf("op-%d", m.nextOp), status: "InProgress"}
	m.ops[o.id] = o
	return o
}

func (m *mgmtState) complete(o *operation, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err == nil {
		o.status = "Succeeded"
		return
	}
	o.status = "Failed"
	_, o.code, o.msg = errorParts(err)
}

// snapshot returns a copy of the operation for rendering, or false.
func (m *mgmtState) snapshot(id string) (operation, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	o, ok := m.ops[id]
	if !ok {
		return operation{}, false
	}
	return *o, true
}

// operationXML renders the poll body.
func operationXML(o operation) string {
	var b strings.Builder
	b.WriteString(xmlHeader)
	b.WriteString("<Operation><ID>")
	xmlEscapeTo(&b, o.id)
	b.WriteString("</ID><Status>")
	b.WriteString(o.status)
	b.WriteString("</Status>")
	if o.status == "Failed" {
		b.WriteString("<Error><Code>")
		xmlEscapeTo(&b, o.code)
		b.WriteString("</Code><Message>")
		xmlEscapeTo(&b, o.msg)
		b.WriteString("</Message></Error>")
	}
	b.WriteString("</Operation>")
	return b.String()
}

// maxPackageMB bounds a deployment's declared package: far above any real
// package, and low enough that the create phase's virtual duration cannot
// overflow.
const maxPackageMB = 1 << 20

// parseMgmtOp routes /management/deployments... paths:
//
//	POST   /management/deployments?name=X&role=worker&size=small&instances=4&package=20
//	POST   /management/deployments/<name>/add?count=N
//	POST   /management/deployments/<name>/suspend
//	DELETE /management/deployments/<name>
func parseMgmtOp(op *wireOp, method string, segs []string, query string) {
	if len(segs) < 2 || segs[1] != "deployments" {
		op.reject("InvalidUri", "unknown management path")
		return
	}
	switch {
	case len(segs) == 2 && method == "POST":
		op.kind = opMgmtDeploy
		op.spec = deploySpec{
			name:      queryValue(query, "name"),
			instances: qInt(query, "instances", 0),
			packageMB: qFloat(query, "package"),
		}
		switch queryValue(query, "role") {
		case "", "worker":
			op.spec.role = fabric.Worker
		case "web":
			op.spec.role = fabric.Web
		default:
			op.reject("InvalidUri", "role must be worker or web")
			return
		}
		switch queryValue(query, "size") {
		case "", "small":
			op.spec.size = fabric.Small
		case "medium":
			op.spec.size = fabric.Medium
		case "large":
			op.spec.size = fabric.Large
		case "extralarge":
			op.spec.size = fabric.ExtraLarge
		default:
			op.reject("InvalidUri", "unknown VM size "+queryValue(query, "size"))
			return
		}
		if op.spec.name == "" {
			op.reject("InvalidUri", "deployment name required")
		} else if math.IsNaN(op.spec.packageMB) || op.spec.packageMB > maxPackageMB {
			op.reject("InvalidInput", "package size out of range")
		}
	case len(segs) == 3 && method == "DELETE":
		op.kind = opMgmtDelete
		op.spec.name = segs[2]
	case len(segs) == 4 && method == "POST" && segs[3] == "add":
		op.kind = opMgmtAdd
		op.spec.name = segs[2]
		op.count = qInt(query, "count", 1)
		if op.count < 1 {
			op.reject("InvalidInput", "count must be positive")
		}
	case len(segs) == 4 && method == "POST" && segs[3] == "suspend":
		op.kind = opMgmtSuspend
		op.spec.name = segs[2]
	default:
		op.reject("InvalidUri", "unknown management path")
	}
}

func qInt(query, key string, def int) int {
	n, err := strconv.Atoi(queryValue(query, key))
	if err != nil {
		return def
	}
	return n
}

// startMgmt answers 202 with a pollable operation and runs the lifecycle
// phases on a spawned proc. Existence checks happen at submission (the
// deployments map is engine-side), so NotFound and Conflict are prompt;
// fabric-level failures surface through the operation's Failed state.
func (f *Facade) startMgmt(op *wireOp, deliver func(wireResult)) {
	m := f.mgmt
	var d *fabric.Deployment
	if op.kind == opMgmtDeploy {
		if _, exists := m.deps[op.spec.name]; exists {
			deliver(wireResult{err: storerr.New(storerr.CodeConflict, "management.Deploy", "deployment "+op.spec.name+" already exists")})
			return
		}
	} else {
		var ok bool
		d, ok = m.deps[op.spec.name]
		if !ok {
			deliver(wireResult{err: storerr.New(storerr.CodeNotFound, "management", "deployment "+op.spec.name)})
			return
		}
	}
	o := m.newOp()
	kind, spec, count := op.kind, op.spec, op.count
	mgmt := f.cloud.Management()
	f.cloud.Engine.Spawn("wire-mgmt-"+o.id, func(p *sim.Proc) {
		var err error
		switch kind {
		case opMgmtDeploy:
			var dep *fabric.Deployment
			dep, _, err = mgmt.Deploy(p, fabric.DeploymentSpec{
				Name:      spec.name,
				Role:      spec.role,
				Size:      spec.size,
				Instances: spec.instances,
				PackageMB: spec.packageMB,
			})
			if err == nil {
				_, _, _, err = mgmt.Run(p, dep)
			}
			if err == nil {
				m.deps[spec.name] = dep
			}
		case opMgmtAdd:
			_, err = mgmt.Add(p, d, count)
		case opMgmtSuspend:
			_, err = mgmt.Suspend(p, d)
		case opMgmtDelete:
			_, err = mgmt.Delete(p, d)
			if err == nil {
				delete(m.deps, spec.name)
			}
		}
		m.complete(o, err)
	})
	deliver(wireResult{status: 202, reqID: o.id, location: "/operations/" + o.id})
}
