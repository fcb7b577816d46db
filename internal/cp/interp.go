package cp

import (
	"fmt"

	"tseries/internal/fparith"
	"tseries/internal/fpu"
	"tseries/internal/link"
	"tseries/internal/memory"
	"tseries/internal/sim"
)

// Tick is the average instruction period: 7.5 MIPS.
const Tick = 133333 * sim.Picosecond

// Channel numbering for the in/out instructions: 0..15 address the
// sixteen sublinks (link L, sublink S → L*4+S); numbers ≥ InternalChanBase
// address soft channels registered with RegisterChan (Occam channels
// between processes on the same node).
const InternalChanBase = 256

// Fault describes a CPU execution fault (bad address, unknown opcode).
type Fault struct {
	Name string
	Iptr int32
	Msg  string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("cp %s: fault at Iptr=%#x: %s", f.Name, f.Iptr, f.Msg)
}

// CPU is one node's control processor. Its four links and (optionally)
// the node's vector unit are wired in by the node builder.
type CPU struct {
	Name  string
	k     *sim.Kernel
	mem   *memory.Memory
	Links [link.LinksPerNode]*link.Link
	FPU   *fpu.Unit

	chans map[int]*sim.Chan

	Err    bool // the error flag (seterr/testerr, div by zero)
	Halted bool // stopp executed

	InstrCount int64

	pendingVF *fpu.Pending
	vfDescr   int // word address of the pending form's descriptor
}

// New creates a control processor over a node memory. Links and FPU are
// attached by the caller.
func New(k *sim.Kernel, name string, mem *memory.Memory) *CPU {
	return &CPU{Name: name, k: k, mem: mem, chans: map[int]*sim.Chan{}}
}

// Kernel returns the simulation kernel.
func (c *CPU) Kernel() *sim.Kernel { return c.k }

// Memory returns the node store.
func (c *CPU) Memory() *memory.Memory { return c.mem }

// RegisterChan installs a soft channel at number id (≥ InternalChanBase).
func (c *CPU) RegisterChan(id int, ch *sim.Chan) {
	if id < InternalChanBase {
		panic("cp: soft channel ids start at InternalChanBase")
	}
	c.chans[id] = ch
}

// LoadProgram stores instruction bytes at a byte address (untimed).
func (c *CPU) LoadProgram(addr int, code []byte) {
	c.mem.PokeBytes(addr, code)
}

// proc is the register state of one executing process.
type proc struct {
	A, B, C int32 // evaluation stack
	W       int32 // workspace pointer (word index)
	I       int32 // instruction pointer (byte address)
	O       int32 // operand register
	lag     sim.Duration
}

func (st *proc) push(v int32) { st.C = st.B; st.B = st.A; st.A = v }
func (st *proc) pop() int32   { v := st.A; st.A = st.B; st.B = st.C; return v }

// Run executes a program from byte address entry with the workspace
// pointer at word index wptr, on the calling simulation process, until
// endp/stopp or a fault. It returns the executed instruction count.
// Starting a new program reboots a previously halted processor.
func (c *CPU) Run(p *sim.Proc, entry, wptr int) (int64, error) {
	c.Halted = false
	st := &proc{I: int32(entry), W: int32(wptr)}
	n, err := c.exec(p, st)
	return n, err
}

// Go spawns a program as its own simulated process (used by startp and
// by node software that runs CP code concurrently with other activity).
func (c *CPU) Go(entry, wptr int) *sim.Proc {
	return c.k.Go(c.Name+"/proc", func(p *sim.Proc) {
		st := &proc{I: int32(entry), W: int32(wptr)}
		if _, err := c.exec(p, st); err != nil {
			c.Err = true
		}
	})
}

func (c *CPU) flush(p *sim.Proc, st *proc) {
	if st.lag > 0 {
		p.Wait(st.lag)
		st.lag = 0
	}
}

// fetch reads the next instruction byte, faulting outside memory.
func (c *CPU) fetch(st *proc) (byte, error) {
	if st.I < 0 || int(st.I) >= memory.Bytes {
		return 0, &Fault{Name: c.Name, Iptr: st.I, Msg: "instruction fetch outside memory"}
	}
	return c.mem.PeekByte(int(st.I)), nil
}

func (c *CPU) wordAddrOK(w int32) bool { return w >= 0 && int(w) < memory.Words }

// exec is the interpreter loop for one process.
func (c *CPU) exec(p *sim.Proc, st *proc) (int64, error) {
	var count int64
	for !c.Halted {
		b, err := c.fetch(st)
		if err != nil {
			c.Err = true
			return count, err
		}
		st.I++
		count++
		c.InstrCount++
		st.O |= int32(b & 0x0F)
		fn := b >> 4
		st.lag += Tick
		if count%4096 == 0 {
			c.flush(p, st) // keep simulated time advancing in long loops
		}

		switch fn {
		case FnPfix:
			st.O <<= 4
			continue
		case FnNfix:
			st.O = (^st.O) << 4
			continue
		case FnJ:
			st.I += st.O
		case FnLdc:
			st.push(st.O)
		case FnLdlp:
			st.push((st.W + st.O) * 4) // byte address of local word
		case FnLdl:
			w := st.W + st.O
			if !c.wordAddrOK(w) {
				return count, c.fault(st, "ldl outside memory")
			}
			st.push(int32(c.mem.PeekWord(int(w)))) // on-chip/workspace: 1 tick
		case FnStl:
			w := st.W + st.O
			if !c.wordAddrOK(w) {
				return count, c.fault(st, "stl outside memory")
			}
			c.mem.PokeWord(int(w), uint32(st.pop()))
		case FnLdnl:
			w := st.A/4 + st.O
			if !c.wordAddrOK(w) {
				return count, c.fault(st, "ldnl outside memory")
			}
			c.flush(p, st)
			v, rerr := c.mem.ReadWord(p, int(w)) // off-chip: timed port access
			if rerr != nil {
				c.Err = true
				return count, rerr
			}
			st.A = int32(v)
		case FnStnl:
			w := st.A/4 + st.O
			if !c.wordAddrOK(w) {
				return count, c.fault(st, "stnl outside memory")
			}
			c.flush(p, st)
			st.pop() // the address (already folded into w)
			c.mem.WriteWord(p, int(w), uint32(st.pop()))
		case FnLdnlp:
			st.A = st.A + st.O*4
		case FnAdc:
			st.A += st.O
		case FnEqc:
			if st.A == st.O {
				st.A = 1
			} else {
				st.A = 0
			}
		case FnCj:
			if st.pop() == 0 {
				st.I += st.O
			}
		case FnAjw:
			st.W += st.O
		case FnCall:
			st.W -= 4
			if !c.wordAddrOK(st.W) || !c.wordAddrOK(st.W+3) {
				return count, c.fault(st, "call workspace outside memory")
			}
			c.mem.PokeWord(int(st.W), uint32(st.I))
			c.mem.PokeWord(int(st.W+1), uint32(st.A))
			c.mem.PokeWord(int(st.W+2), uint32(st.B))
			c.mem.PokeWord(int(st.W+3), uint32(st.C))
			st.I += st.O
		case FnOpr:
			done, oerr := c.operate(p, st, int(st.O))
			if oerr != nil {
				c.Err = true
				return count, oerr
			}
			if done {
				c.flush(p, st)
				return count, nil
			}
		}
		st.O = 0
	}
	c.flush(p, st)
	return count, nil
}

func (c *CPU) fault(st *proc, msg string) error {
	c.Err = true
	return &Fault{Name: c.Name, Iptr: st.I, Msg: msg}
}

// operate executes a secondary operation; it reports done=true when the
// current process must stop (endp/stopp).
func (c *CPU) operate(p *sim.Proc, st *proc, op int) (done bool, err error) {
	switch op {
	case OpRev:
		st.A, st.B = st.B, st.A
	case OpRet:
		if !c.wordAddrOK(st.W) {
			return false, c.fault(st, "ret with bad workspace")
		}
		st.I = int32(c.mem.PeekWord(int(st.W)))
		st.W += 4
	case OpAdd, OpSum:
		st.A = st.B + st.A
		st.B = st.C
	case OpSub, OpDiff:
		st.A = st.B - st.A
		st.B = st.C
	case OpMul:
		st.lag += 2 * Tick // multiply is a multi-cycle operation
		st.A = st.B * st.A
		st.B = st.C
	case OpDiv:
		st.lag += 4 * Tick
		if st.A == 0 {
			c.Err = true
			st.A = 0
		} else {
			st.A = st.B / st.A
		}
		st.B = st.C
	case OpRem:
		st.lag += 4 * Tick
		if st.A == 0 {
			c.Err = true
			st.A = 0
		} else {
			st.A = st.B % st.A
		}
		st.B = st.C
	case OpGt:
		if st.B > st.A {
			st.A = 1
		} else {
			st.A = 0
		}
		st.B = st.C
	case OpAnd:
		st.A = st.B & st.A
		st.B = st.C
	case OpOr:
		st.A = st.B | st.A
		st.B = st.C
	case OpXor:
		st.A = st.B ^ st.A
		st.B = st.C
	case OpNot:
		st.A = ^st.A
	case OpShl:
		st.A = st.B << uint(st.A&31)
		st.B = st.C
	case OpShr:
		st.A = int32(uint32(st.B) >> uint(st.A&31))
		st.B = st.C
	case OpMint:
		st.push(-1 << 31)
	case OpDup:
		st.push(st.A)
	case OpWsub:
		st.A = st.A*4 + st.B
		st.B = st.C
	case OpSeterr:
		c.Err = true
	case OpTesterr:
		v := int32(0)
		if c.Err {
			v = 1
		}
		c.Err = false
		st.push(v)
	case OpLdtimer:
		c.flush(p, st)
		st.push(int32(sim.Duration(p.Now()) / sim.Microsecond))
	case OpIn:
		return false, c.chanIn(p, st)
	case OpOut:
		return false, c.chanOut(p, st)
	case OpOutword:
		word := make([]byte, 4)
		v := uint32(st.pop())
		ch := st.pop()
		word[0], word[1], word[2], word[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		return false, c.sendChan(p, st, int(ch), word)
	case OpInword:
		ch := st.pop()
		data, rerr := c.recvChan(p, st, int(ch))
		if rerr != nil {
			return false, rerr
		}
		if len(data) < 4 {
			return false, c.fault(st, "inword: short message")
		}
		st.push(int32(uint32(data[0]) | uint32(data[1])<<8 | uint32(data[2])<<16 | uint32(data[3])<<24))
	case OpVform:
		return false, c.vform(p, st)
	case OpVwait:
		return false, c.vwait(p, st)
	case OpMove:
		return false, c.blockMove(p, st)
	case OpStartp:
		wp := st.pop()
		code := st.pop()
		child := &proc{I: code, W: wp}
		c.k.Go(c.Name+"/proc", func(cp *sim.Proc) {
			if _, e := c.exec(cp, child); e != nil {
				c.Err = true
			}
		})
	case OpEndp:
		return true, nil
	case OpStopp:
		c.Halted = true
		return true, nil
	default:
		return false, c.fault(st, fmt.Sprintf("unknown operation %d", op))
	}
	return false, nil
}

// chanIn implements in: Areg=byte count, Breg=channel, Creg=dest address.
func (c *CPU) chanIn(p *sim.Proc, st *proc) error {
	count := st.pop()
	ch := st.pop()
	dst := st.pop()
	data, err := c.recvChan(p, st, int(ch))
	if err != nil {
		return err
	}
	if int32(len(data)) < count {
		count = int32(len(data))
	}
	if dst < 0 || int(dst)+int(count) > memory.Bytes {
		return c.fault(st, "in: destination outside memory")
	}
	c.mem.PokeBytes(int(dst), data[:count])
	return nil
}

// chanOut implements out: Areg=byte count, Breg=channel, Creg=src address.
func (c *CPU) chanOut(p *sim.Proc, st *proc) error {
	count := st.pop()
	ch := st.pop()
	src := st.pop()
	if count <= 0 || src < 0 || int(src)+int(count) > memory.Bytes {
		return c.fault(st, "out: source outside memory")
	}
	return c.sendChan(p, st, int(ch), c.mem.PeekBytes(int(src), int(count)))
}

// sendChan sends data, a buffer the caller built for this message and
// hands over, on channel ch.
func (c *CPU) sendChan(p *sim.Proc, st *proc, ch int, data []byte) error {
	c.flush(p, st)
	if ch >= 0 && ch < link.SublinksPerNode {
		l := c.Links[ch/link.SublinksPerLink]
		if l == nil {
			return c.fault(st, fmt.Sprintf("out: link %d not fitted", ch/link.SublinksPerLink))
		}
		return l.Sublink(ch%link.SublinksPerLink).SendOwned(p, data)
	}
	sc, ok := c.chans[ch]
	if !ok {
		return c.fault(st, fmt.Sprintf("out: channel %d not registered", ch))
	}
	sc.Send(p, data)
	return nil
}

func (c *CPU) recvChan(p *sim.Proc, st *proc, ch int) ([]byte, error) {
	c.flush(p, st)
	if ch >= 0 && ch < link.SublinksPerNode {
		l := c.Links[ch/link.SublinksPerLink]
		if l == nil {
			return nil, c.fault(st, fmt.Sprintf("in: link %d not fitted", ch/link.SublinksPerLink))
		}
		return l.Sublink(ch % link.SublinksPerLink).Recv(p), nil
	}
	sc, ok := c.chans[ch]
	if !ok {
		return nil, c.fault(st, fmt.Sprintf("in: channel %d not registered", ch))
	}
	return sc.Recv(p).([]byte), nil
}

// vform starts the vector form described by the 8-word descriptor at the
// byte address in Areg: [form, precision, X, Y, Z, N, scalar-lo,
// scalar-hi]. The unit runs in parallel with this CP.
func (c *CPU) vform(p *sim.Proc, st *proc) error {
	if c.FPU == nil {
		return c.fault(st, "vform: no vector unit fitted")
	}
	if c.pendingVF != nil {
		return c.fault(st, "vform: a vector form is already pending")
	}
	addr := st.pop()
	if addr < 0 || addr%4 != 0 || int(addr)+32 > memory.Bytes {
		return c.fault(st, "vform: bad descriptor address")
	}
	w := int(addr) / 4
	rd := func(i int) int { return int(int32(c.mem.PeekWord(w + i))) }
	prec := fpu.P64
	if rd(1) == 32 {
		prec = fpu.P32
	}
	scalar := fparith.F64(uint64(c.mem.PeekWord(w+6)) | uint64(c.mem.PeekWord(w+7))<<32)
	c.flush(p, st)
	c.pendingVF = c.FPU.Start(fpu.Op{
		Form: fpu.Form(rd(0)), Prec: prec,
		X: rd(2), Y: rd(3), Z: rd(4), N: rd(5), A: scalar,
	})
	c.vfDescr = w
	return nil
}

// vwait blocks until the pending vector form completes (the completion
// interrupt), writes any scalar result back into the descriptor's scalar
// words, and pushes a status word (bit 0 invalid, bit 1 overflow).
func (c *CPU) vwait(p *sim.Proc, st *proc) error {
	if c.pendingVF == nil {
		return c.fault(st, "vwait: no vector form pending")
	}
	c.flush(p, st)
	res, err := c.pendingVF.Wait(p)
	c.pendingVF = nil
	if err != nil {
		return c.fault(st, "vwait: "+err.Error())
	}
	c.mem.PokeWord(c.vfDescr+6, uint32(uint64(res.Scalar)))
	c.mem.PokeWord(c.vfDescr+7, uint32(uint64(res.Scalar)>>32))
	status := int32(0)
	if res.Status.Invalid {
		status |= 1
	}
	if res.Status.Overflow {
		status |= 2
	}
	st.push(status)
	return nil
}

// blockMove implements move: Areg=count (bytes), Breg=src, Creg=dest.
// It runs through the random-access port word by word — the 64-bit
// element cost is two reads plus two writes, 1.6 µs, which is the
// paper's intra-node gather/scatter figure.
func (c *CPU) blockMove(p *sim.Proc, st *proc) error {
	count := st.pop()
	src := st.pop()
	dst := st.pop()
	if count < 0 || src < 0 || dst < 0 ||
		int(src)+int(count) > memory.Bytes || int(dst)+int(count) > memory.Bytes {
		return c.fault(st, "move: range outside memory")
	}
	if src%4 != 0 || dst%4 != 0 || count%4 != 0 {
		return c.fault(st, "move: unaligned block move")
	}
	c.flush(p, st)
	for i := int32(0); i < count; i += 4 {
		v, err := c.mem.ReadWord(p, int(src+i)/4)
		if err != nil {
			c.Err = true
			return err
		}
		c.mem.WriteWord(p, int(dst+i)/4, v)
	}
	return nil
}
