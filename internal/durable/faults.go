package durable

import (
	"sync"
	"syscall"
)

// FaultKind is a class of injected host-disk failure.
type FaultKind int

const (
	// FaultENOSPC fails a write with syscall.ENOSPC after committing the
	// bytes that fit before the planned offset — the classic full-disk
	// partial write.
	FaultENOSPC FaultKind = iota
	// FaultShortWrite commits only the bytes before the planned offset
	// and reports syscall.EIO, leaving a torn record on disk exactly as
	// a power cut mid-write would.
	FaultShortWrite
	// FaultEIO fails the write with syscall.EIO without committing any
	// of it.
	FaultEIO
)

func (k FaultKind) String() string {
	switch k {
	case FaultENOSPC:
		return "enospc"
	case FaultShortWrite:
		return "short-write"
	case FaultEIO:
		return "eio"
	}
	return "unknown"
}

type faultPoint struct {
	at   int64 // cumulative durable-layer bytes written when the fault fires
	kind FaultKind
}

// DiskFaults is a plan of host-disk failures for the durable layer,
// mirroring the shape of internal/fault's simulated plans: every fault
// sits at a fixed cumulative byte offset, so a failing run replays
// exactly. One DiskFaults may be shared by a Journal and a Store; they draw from
// the same cumulative byte budget, so fault order follows real write
// order. Each planned point fires once.
type DiskFaults struct {
	mu      sync.Mutex
	written int64
	points  []faultPoint
}

// FaultAt places a single fault of kind k exactly at cumulative byte
// offset at.
func FaultAt(at int64, kind FaultKind) *DiskFaults {
	return &DiskFaults{points: []faultPoint{{at: at, kind: kind}}}
}

// check is consulted before a write of n bytes. It returns how many of
// those bytes may be committed and the error the write must report
// (nil when no planned fault falls inside the write). A fired point is
// consumed.
func (d *DiskFaults) check(n int) (allow int, err error) {
	if d == nil {
		return n, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, p := range d.points {
		if p.at < d.written+int64(n) {
			allow = int(p.at - d.written)
			if allow < 0 {
				allow = 0
			}
			d.points = append(d.points[:i], d.points[i+1:]...)
			if p.kind == FaultEIO {
				allow = 0 // a plain EIO commits nothing
			}
			d.written += int64(allow)
			if p.kind == FaultENOSPC {
				return allow, syscall.ENOSPC
			}
			return allow, syscall.EIO
		}
	}
	d.written += int64(n)
	return n, nil
}

// faultyWrite commits b through w (anything with Write), honoring the
// plan: it may commit a prefix and return the planned error.
func faultyWrite(w interface{ Write([]byte) (int, error) }, d *DiskFaults, b []byte) (int, error) {
	allow, ferr := d.check(len(b))
	n := 0
	if allow > 0 {
		var err error
		n, err = w.Write(b[:allow])
		if err != nil {
			return n, err
		}
	}
	if ferr != nil {
		return n, ferr
	}
	return n, nil
}
