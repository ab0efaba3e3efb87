// Package sim provides a deterministic discrete-event simulation engine.
//
// Everything in this repository that has a notion of time — flash chips,
// NVMe transport, firmware CPUs, host "threads" running transactions —
// executes on the virtual clock owned by an Engine. An actor is a function
// registered with the engine: a goroutine of its own, or, on a serialized
// engine, a coroutine (see Serialize). Whenever every actor is blocked in a
// sim primitive (Sleep, Mutex, Cond, Semaphore, ...) the engine advances the
// clock to the earliest pending timer and wakes the actors due at that
// instant. Because no actor ever blocks on real I/O or real time, the whole
// simulation is deterministic and runs as fast as the host CPU allows.
//
// The one rule actors must follow: any blocking interaction between actors
// must go through a sim primitive. Blocking on a plain channel or sync.Mutex
// while registered would stall the clock.
package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Engine owns the virtual clock and the set of registered actors.
// The zero value is not usable; call NewEngine.
type Engine struct {
	mu       sync.Mutex
	now      time.Duration // virtual time since engine start
	nowCheap atomic.Int64  // mirrors now; lock-free reads (see NowCheap)
	runnable int           // actors currently executing (not parked)
	actors   int           // registered actors (running or parked)
	timers   timerHeap
	seq      uint64 // tiebreak for timers at equal deadlines (determinism)

	// actors parked on timers and primitives; tracked only so that a true
	// deadlock produces a diagnostic instead of a silent hang.
	parked parkedList

	// Serialized scheduling (see Serialize): at most one actor executes at
	// a time and every wakeup is deferred into ready, from which the next
	// actor is drawn by the seeded schedRng once the current one parks.
	serial   bool
	schedRng *rand.Rand
	ready    []*parkToken // woken (or freshly spawned) actors awaiting dispatch
	spawned  bool         // any actor ever started (guards late Serialize)

	// Coroutine transport (serialized mode only): every actor is a
	// coroutine that the hub goroutine resumes when dispatchLocked draws
	// it. See hub.
	current *parkToken   // the executing actor's token; written by the hub
	drawn   *parkToken   // dispatched, not yet resumed by the hub
	spare   []*parkToken // finished actors' coroutines, reused by Go
	hubUp   bool         // a hub goroutine exists

	idle          chan struct{} // closed & replaced each time actors reaches zero
	watchdogArmed bool          // a stall watchdog timer is pending
	onDeadlock    func(string)  // test hook; replaces the deadlock panic
}

// NewEngine returns an engine with the clock at zero and no actors.
func NewEngine() *Engine {
	return &Engine{idle: make(chan struct{})}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// NowCheap returns the current virtual time without taking the engine
// lock. The clock only advances while every actor is parked, so a running
// actor always observes a stable, current value — identical to Now().
// Hot-path telemetry timestamps use this to avoid contending the
// scheduler mutex.
func (e *Engine) NowCheap() time.Duration {
	return time.Duration(e.nowCheap.Load())
}

// Serialize switches the engine into serialized scheduling: at most one
// actor executes at any moment, and whenever several actors are eligible to
// run at the same virtual instant the next one is chosen by a PRNG seeded
// with seed. Two engines serialized with the same seed and driven by the
// same workload make identical scheduling decisions, which is what lets the
// model checker replay a failing schedule from nothing but its seed — and
// lets different seeds explore different interleavings of the same instant.
//
// Because only one actor runs at a time, a serialized engine runs its
// actors as coroutines on one hub goroutine: a park hands control straight
// to the next drawn actor without a channel or the Go scheduler.
//
// Must be called before any actor is spawned.
func (e *Engine) Serialize(seed int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.spawned {
		panic("sim: Serialize called after actors were spawned")
	}
	e.serial = true
	e.schedRng = rand.New(rand.NewSource(seed))
}

// Go spawns fn as a new actor. It may be called from inside or outside the
// simulation. The actor is runnable immediately (in serialized mode it is
// queued for dispatch like any other wakeup).
func (e *Engine) Go(name string, fn func()) {
	e.mu.Lock()
	e.actors++
	e.spawned = true
	if e.serial {
		var tok *parkToken
		if n := len(e.spare); n > 0 {
			tok = e.spare[n-1]
			e.spare[n-1] = nil
			e.spare = e.spare[:n-1]
		} else {
			tok = &parkToken{}
		}
		tok.body = fn
		e.ready = append(e.ready, tok)
		if e.runnable == 0 {
			e.dispatchLocked()
		}
		e.mu.Unlock()
		return
	}
	e.runnable++
	e.mu.Unlock()
	go e.run(fn)
}

// run is the whole life of an actor whose body is fn.
func (e *Engine) run(fn func()) {
	defer e.exit()
	fn()
}

func (e *Engine) exit() {
	if r := recover(); r != nil {
		// Re-panic immediately WITHOUT touching e.mu: the panic may have
		// been raised inside a primitive that still holds it (deadlock
		// detection), and the process is about to die anyway.
		panic(r)
	}
	e.mu.Lock()
	e.actors--
	e.runnable--
	if e.runnable == 0 && e.actors > 0 {
		e.unblockLocked()
	}
	if e.actors == 0 {
		close(e.idle)
		e.idle = make(chan struct{})
	}
	e.mu.Unlock()
}

// Wait blocks the (non-actor) caller until every actor has exited.
// It is typically called from the test or benchmark goroutine after
// spawning the workload with Go.
func (e *Engine) Wait() {
	e.mu.Lock()
	if e.actors == 0 {
		e.mu.Unlock()
		return
	}
	ch := e.idle
	e.mu.Unlock()
	<-ch
}

// Sleep parks the calling actor for d of virtual time. d <= 0 yields
// without advancing the clock (the actor is immediately re-runnable).
func (e *Engine) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	tok := e.token()
	e.mu.Lock()
	e.seq++
	e.timers.push(timer{when: e.now + d, seq: e.seq, tok: tok})
	e.parkLocked(tok, "sleep", "")
}

// parkReason says what a parked actor waits on, for the deadlock dump. It
// is kept as its parts so that parking builds no string; String joins them
// only when a dump is actually rendered.
type parkReason struct {
	kind string // primitive, with its trailing colon when name follows
	name string
}

func (r parkReason) String() string { return r.kind + r.name }

// parkLocked parks the calling actor on tok, which the caller has already
// filed where its waker will find it, and returns once the actor has been
// woken and (in serialized mode) drawn again. kind and name describe the
// wait (see parkReason). If the actor was the last runnable one, the
// engine picks what runs next first. Caller holds e.mu, which parkLocked
// releases.
func (e *Engine) parkLocked(tok *parkToken, kind, name string) {
	e.parked.add(tok, parkReason{kind: kind, name: name})
	e.runnable--
	if e.runnable == 0 {
		e.unblockLocked()
	}
	if !e.serial {
		e.mu.Unlock()
		<-tok.ch
		parkTokenPool.Put(tok) // the one wakeup per park has arrived
		return
	}
	if e.drawn == tok {
		// The actor drew itself (a lone sleeper): it keeps running.
		e.drawn = nil
		e.mu.Unlock()
		return
	}
	e.mu.Unlock()
	tok.yield(struct{}{}) // back to the hub until drawn again
}

// wakeLocked transfers a parked actor back to runnable. In serialized mode
// the actor is only queued; it starts running when dispatchLocked draws it.
// Caller holds e.mu.
func (e *Engine) wakeLocked(tok *parkToken) {
	e.parked.remove(tok)
	if e.serial {
		e.ready = append(e.ready, tok)
		return
	}
	e.runnable++
	tok.ch <- struct{}{}
}

// unblockLocked runs when no actor is runnable: in serialized mode it
// dispatches exactly one queued actor (advancing the clock first if the
// queue is empty); otherwise it advances the clock, waking every actor due
// at the next instant. Caller holds e.mu.
func (e *Engine) unblockLocked() {
	if !e.serial {
		e.advanceLocked()
		return
	}
	if len(e.ready) == 0 {
		e.advanceLocked() // due timers feed e.ready via wakeLocked
	}
	if len(e.ready) > 0 {
		e.dispatchLocked()
	}
}

// dispatchLocked releases one actor drawn at seeded-random from the ready
// queue: the hub resumes it once the running actor yields, or a new hub
// does if none is running. Caller holds e.mu; serialized mode only.
func (e *Engine) dispatchLocked() {
	i := e.schedRng.Intn(len(e.ready))
	tok := e.ready[i]
	copy(e.ready[i:], e.ready[i+1:])
	e.ready[len(e.ready)-1] = nil
	e.ready = e.ready[:len(e.ready)-1]
	e.runnable++
	e.drawn = tok
	if !e.hubUp {
		e.hubUp = true
		go e.hub()
	}
}

// hub is the one goroutine that runs a serialized engine's actors. Each
// actor is a coroutine: the hub resumes the actor dispatchLocked drew, and
// the actor runs until it parks or exits, which switches straight back to
// the hub. A handoff is thus two coroutine switches, with no channel, no
// run queue and no wakeup of another thread. The hub exits once nothing
// is drawn: when the last actor has exited, stopping the spare coroutines
// on its way out, or when the engine stalls, until an external Go draws an
// actor and starts a new hub.
//
// An actor that calls runtime.Goexit (t.FailNow does) takes the hub down
// with it, because the coroutine's caller inherits the Goexit. The actor's
// own exit bookkeeping has run by then, so the hub's last act is to start
// a replacement that carries on from the same state (and, if that actor
// was the last, stops the spares and exits).
func (e *Engine) hub() {
	finished := false
	defer func() {
		if finished {
			return
		}
		if r := recover(); r != nil {
			panic(r) // an actor panicked; as in exit, e.mu may be held
		}
		go e.hub() // hubUp stays set: the replacement takes over
	}()
	e.mu.Lock()
	for e.drawn != nil {
		tok := e.drawn
		e.drawn = nil
		e.current = tok
		e.mu.Unlock()
		if tok.resume == nil {
			e.startCoroutine(tok)
		}
		tok.resume()
		e.mu.Lock()
	}
	e.hubUp = false
	var spare []*parkToken
	if e.actors == 0 {
		spare, e.spare = e.spare, nil
	}
	e.mu.Unlock()
	for _, tok := range spare {
		tok.stop()
	}
	finished = true
}

// advanceLocked pops every timer due at the earliest deadline and wakes its
// actor. Caller holds e.mu.
//
// If no timers exist while actors are parked, the simulation has stalled.
// That is usually a deadlock — but it also happens transiently while a
// non-actor goroutine (a constructor, a network handler) is between Go()
// calls: the actors it already spawned may all park before the one that
// owns the first timer exists. So a stall arms a real-time watchdog
// instead of panicking immediately; any Go() or wake disarms it, and a
// stall that persists for stallTimeout of wall-clock time is reported as
// a deadlock with a state dump.
func (e *Engine) advanceLocked() {
	if len(e.timers) == 0 {
		if e.parked.n == 0 {
			return // all actors exited or exiting
		}
		e.armWatchdogLocked()
		return
	}
	first := e.timers[0].when
	if first < e.now {
		panic(fmt.Sprintf("sim: timer in the past (%v < %v)", first, e.now))
	}
	e.now = first
	e.nowCheap.Store(int64(first))
	for len(e.timers) > 0 && e.timers[0].when == first {
		e.wakeLocked(e.timers.pop().tok)
	}
}

// stallTimeout is how long a no-timer, all-parked state may persist in
// real time before it is reported as a deadlock (variable for tests).
var stallTimeout = 5 * time.Second

// armWatchdogLocked schedules the deadlock report. Caller holds e.mu.
func (e *Engine) armWatchdogLocked() {
	if e.watchdogArmed {
		return
	}
	e.watchdogArmed = true
	time.AfterFunc(stallTimeout, func() {
		e.mu.Lock()
		e.watchdogArmed = false
		stalled := e.runnable == 0 && len(e.timers) == 0 && len(e.ready) == 0 && e.parked.n > 0
		if !stalled {
			e.mu.Unlock()
			return
		}
		// Release e.mu before panicking: unwinding runs deferred functions
		// (waitgroup Done, unlocks) that may need the engine lock.
		msg := "sim: deadlock — all actors parked with no pending timers\n" + e.stateLocked()
		hook := e.onDeadlock
		e.mu.Unlock()
		if hook != nil {
			hook(msg)
			return
		}
		panic(msg)
	})
}

func (e *Engine) stateLocked() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  now=%v actors=%d runnable=%d parked=%d timers=%d\n",
		e.now, e.actors, e.runnable, e.parked.n, len(e.timers))
	reasons := make(map[string]int)
	for tok := e.parked.head; tok != nil; tok = tok.nextParked {
		reasons[tok.why.String()]++
	}
	keys := make([]string, 0, len(reasons))
	for k := range reasons {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  parked on %q: %d\n", k, reasons[k])
	}
	return b.String()
}

// parkToken stands for one parked actor in timers, wait queues and the
// parked list. Its transport depends on the engine's mode.
//
// On a serialized engine each actor owns one token for its whole life (an
// actor parks on one thing at a time), and the token carries the actor's
// coroutine: resume runs it until it yields, yield hands control back. The
// hub makes the coroutine when it first draws the actor; once the actor's
// body has returned, the coroutine and its token serve the next Go.
//
// Otherwise tokens are pooled and woken by a buffered send (not a close),
// so a token and its channel are reusable the moment the parked actor has
// received its wakeup. Every park would otherwise allocate a fresh channel
// — on the hot path (each virtual sleep, each contended primitive) that is
// the single largest allocation source in the whole simulator. Each token
// receives exactly one wakeup per park: every wake path (timer pop, mutex
// handoff, cond signal) removes the token from its wait structure first.
type parkToken struct {
	ch chan struct{} // concurrent mode

	body   func()                  // serialized mode: the actor's fn
	resume func() (struct{}, bool) // serialized mode
	yield  func(struct{}) bool     // serialized mode
	stop   func()                  // serialized mode

	why                    parkReason // set while parked
	prevParked, nextParked *parkToken // links in Engine.parked
}

var parkTokenPool = sync.Pool{
	New: func() any { return &parkToken{ch: make(chan struct{}, 1)} },
}

// token returns the token the calling actor parks on: its own on a
// serialized engine, a pooled one otherwise.
func (e *Engine) token() *parkToken {
	if e.serial {
		return e.current
	}
	return parkTokenPool.Get().(*parkToken)
}

// parkedList is the set of parked actors, an intrusive doubly linked list
// threaded through their tokens, so parking and waking touch no map.
type parkedList struct {
	head *parkToken
	n    int
}

func (l *parkedList) add(tok *parkToken, why parkReason) {
	tok.why = why
	tok.prevParked, tok.nextParked = nil, l.head
	if l.head != nil {
		l.head.prevParked = tok
	}
	l.head = tok
	l.n++
}

func (l *parkedList) remove(tok *parkToken) {
	if tok.prevParked != nil {
		tok.prevParked.nextParked = tok.nextParked
	} else {
		l.head = tok.nextParked
	}
	if tok.nextParked != nil {
		tok.nextParked.prevParked = tok.prevParked
	}
	tok.prevParked, tok.nextParked = nil, nil
	l.n--
}

// timer is one pending Sleep wakeup. Timers are stored by value in a
// binary min-heap ordered by (when, seq): seq is unique, so the pop order
// is a total order and independent of the heap's internal layout.
type timer struct {
	when time.Duration
	seq  uint64
	tok  *parkToken
}

func (t timer) before(u timer) bool {
	if t.when != u.when {
		return t.when < u.when
	}
	return t.seq < u.seq
}

// timerHeap is a value-typed min-heap, so scheduling a Sleep allocates
// nothing once the backing array has grown to the peak timer count.
type timerHeap []timer

func (h *timerHeap) push(t timer) {
	*h = append(*h, t)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q[i].before(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// pop removes and returns the earliest timer. The heap must be non-empty.
func (h *timerHeap) pop() timer {
	q := *h
	n := len(q) - 1
	t := q[0]
	q[0] = q[n]
	q[n] = timer{}
	q = q[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && q[r].before(q[l]) {
			c = r
		}
		if !q[c].before(q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return t
}

// waitQueue is a FIFO of parked actors. It keeps its backing array across
// pops and resets, so a primitive's steady-state handoffs allocate nothing.
type waitQueue []*parkToken

func (q *waitQueue) push(tok *parkToken) { *q = append(*q, tok) }

// pop removes and returns the oldest waiter. The queue must be non-empty.
func (q *waitQueue) pop() *parkToken {
	tok := (*q)[0]
	*q = slices.Delete(*q, 0, 1)
	return tok
}

// reset empties the queue, keeping its capacity.
func (q *waitQueue) reset() {
	clear(*q)
	*q = (*q)[:0]
}
