package sim

import "time"

// Mutex is a FIFO mutual-exclusion lock for actors. FIFO ordering keeps the
// simulation deterministic and models a fair hardware arbiter (flash channel,
// controller bus). The zero value is not usable; create with NewMutex.
type Mutex struct {
	e       *Engine
	locked  bool
	name    string
	waiters waitQueue
}

// NewMutex returns an unlocked mutex owned by engine e.
func (e *Engine) NewMutex(name string) *Mutex {
	return &Mutex{e: e, name: name}
}

// Lock blocks the calling actor until the mutex is available.
func (m *Mutex) Lock() {
	e := m.e
	e.mu.Lock()
	if !m.locked {
		m.locked = true
		e.mu.Unlock()
		return
	}
	tok := e.token()
	m.waiters.push(tok)
	e.parkLocked(tok, "mutex:", m.name)
}

// TryLock acquires the mutex if it is free and reports whether it did.
func (m *Mutex) TryLock() bool {
	e := m.e
	e.mu.Lock()
	defer e.mu.Unlock()
	if m.locked {
		return false
	}
	m.locked = true
	return true
}

// Unlock releases the mutex, handing it directly to the oldest waiter.
func (m *Mutex) Unlock() {
	e := m.e
	e.mu.Lock()
	if !m.locked {
		e.mu.Unlock()
		panic("sim: unlock of unlocked Mutex " + m.name)
	}
	if len(m.waiters) > 0 {
		e.wakeLocked(m.waiters.pop()) // lock stays held, ownership transfers
	} else {
		m.locked = false
	}
	e.mu.Unlock()
}

// Use acquires the mutex, holds it for d of virtual time, and releases it.
// It models a resource (flash chip, bus) that serves requests serially.
func (m *Mutex) Use(d time.Duration) {
	m.Lock()
	m.e.Sleep(d)
	m.Unlock()
}

// Cond is a condition variable tied to a Mutex, with FIFO wakeup.
type Cond struct {
	L       *Mutex
	waiters waitQueue
}

// NewCond returns a condition variable whose Wait releases and reacquires l.
func (e *Engine) NewCond(l *Mutex) *Cond { return &Cond{L: l} }

// Wait atomically releases c.L, parks the actor until Signal/Broadcast,
// then reacquires c.L before returning.
func (c *Cond) Wait() {
	e := c.L.e
	tok := e.token()
	e.mu.Lock()
	c.waiters.push(tok)
	// Release the mutex inline (same logic as Unlock, under e.mu already).
	if len(c.L.waiters) > 0 {
		e.wakeLocked(c.L.waiters.pop())
	} else {
		c.L.locked = false
	}
	e.parkLocked(tok, "cond:", c.L.name)
	c.L.Lock()
}

// Signal wakes the oldest waiter, if any. Caller should hold c.L.
func (c *Cond) Signal() {
	e := c.L.e
	e.mu.Lock()
	if len(c.waiters) > 0 {
		e.wakeLocked(c.waiters.pop())
	}
	e.mu.Unlock()
}

// Broadcast wakes every waiter. Caller should hold c.L.
func (c *Cond) Broadcast() {
	e := c.L.e
	e.mu.Lock()
	for _, tok := range c.waiters {
		e.wakeLocked(tok)
	}
	c.waiters.reset()
	e.mu.Unlock()
}

// Semaphore is a counting semaphore with FIFO handoff. It models pools of
// identical servers such as controller CPU cores or DMA engines.
type Semaphore struct {
	e       *Engine
	name    string
	avail   int
	waiters waitQueue
}

// NewSemaphore returns a semaphore with n initial permits.
func (e *Engine) NewSemaphore(name string, n int) *Semaphore {
	if n < 0 {
		panic("sim: negative semaphore size")
	}
	return &Semaphore{e: e, name: name, avail: n}
}

// Acquire takes one permit, blocking if none are available.
func (s *Semaphore) Acquire() {
	e := s.e
	e.mu.Lock()
	if s.avail > 0 {
		s.avail--
		e.mu.Unlock()
		return
	}
	tok := e.token()
	s.waiters.push(tok)
	e.parkLocked(tok, "sem:", s.name)
}

// Release returns one permit, handing it directly to the oldest waiter.
func (s *Semaphore) Release() {
	e := s.e
	e.mu.Lock()
	if len(s.waiters) > 0 {
		e.wakeLocked(s.waiters.pop()) // permit transfers to waiter
	} else {
		s.avail++
	}
	e.mu.Unlock()
}

// Use acquires a permit, holds it for d of virtual time, and releases it.
func (s *Semaphore) Use(d time.Duration) {
	s.Acquire()
	s.e.Sleep(d)
	s.Release()
}

// RWMutex is a writer-preferring readers-writer lock for actors.
type RWMutex struct {
	e            *Engine
	name         string
	readers      int
	writer       bool
	readWaiters  waitQueue
	writeWaiters waitQueue
}

// NewRWMutex returns an unlocked RWMutex owned by engine e.
func (e *Engine) NewRWMutex(name string) *RWMutex {
	return &RWMutex{e: e, name: name}
}

// RLock acquires a shared lock.
func (m *RWMutex) RLock() {
	e := m.e
	e.mu.Lock()
	if !m.writer && len(m.writeWaiters) == 0 {
		m.readers++
		e.mu.Unlock()
		return
	}
	tok := e.token()
	m.readWaiters.push(tok)
	e.parkLocked(tok, "rwmutex-r:", m.name)
}

// RUnlock releases a shared lock.
func (m *RWMutex) RUnlock() {
	e := m.e
	e.mu.Lock()
	m.readers--
	if m.readers < 0 {
		e.mu.Unlock()
		panic("sim: RUnlock without RLock on " + m.name)
	}
	if m.readers == 0 {
		m.promoteLocked()
	}
	e.mu.Unlock()
}

// Lock acquires the exclusive lock.
func (m *RWMutex) Lock() {
	e := m.e
	e.mu.Lock()
	if !m.writer && m.readers == 0 {
		m.writer = true
		e.mu.Unlock()
		return
	}
	tok := e.token()
	m.writeWaiters.push(tok)
	e.parkLocked(tok, "rwmutex-w:", m.name)
}

// Unlock releases the exclusive lock.
func (m *RWMutex) Unlock() {
	e := m.e
	e.mu.Lock()
	if !m.writer {
		e.mu.Unlock()
		panic("sim: Unlock of unlocked RWMutex " + m.name)
	}
	m.writer = false
	m.promoteLocked()
	e.mu.Unlock()
}

// promoteLocked hands the lock to the next writer, or failing that to all
// queued readers. Caller holds e.mu and the lock is free.
func (m *RWMutex) promoteLocked() {
	e := m.e
	if len(m.writeWaiters) > 0 {
		m.writer = true
		e.wakeLocked(m.writeWaiters.pop())
		return
	}
	for _, tok := range m.readWaiters {
		m.readers++
		e.wakeLocked(tok)
	}
	m.readWaiters.reset()
}

// WaitGroup lets an actor wait for a set of actors to finish, on virtual time.
type WaitGroup struct {
	e       *Engine
	n       int
	waiters waitQueue
}

// NewWaitGroup returns an empty wait group.
func (e *Engine) NewWaitGroup() *WaitGroup { return &WaitGroup{e: e} }

// Add adds delta to the counter.
func (w *WaitGroup) Add(delta int) {
	e := w.e
	e.mu.Lock()
	w.n += delta
	if w.n < 0 {
		e.mu.Unlock()
		panic("sim: negative WaitGroup counter")
	}
	if w.n == 0 {
		for _, tok := range w.waiters {
			e.wakeLocked(tok)
		}
		w.waiters.reset()
	}
	e.mu.Unlock()
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait parks the calling actor until the counter reaches zero.
func (w *WaitGroup) Wait() {
	e := w.e
	e.mu.Lock()
	if w.n == 0 {
		e.mu.Unlock()
		return
	}
	tok := e.token()
	w.waiters.push(tok)
	e.parkLocked(tok, "waitgroup", "")
}

// Event is a one-shot signal: Wait parks the calling actor until Set has
// been called, and returns at once from then on. Waiters wake in FIFO
// order. The first waiter is held inline, so the common single-waiter
// event never allocates. The zero value is not usable: create one with
// NewEvent, or embed it and call Init.
type Event struct {
	e     *Engine
	name  string
	set   bool
	first *parkToken
	rest  waitQueue
}

// NewEvent returns an unset event owned by engine e.
func (e *Engine) NewEvent(name string) *Event {
	ev := &Event{}
	ev.Init(e, name)
	return ev
}

// Init prepares an embedded event, unset, on engine e.
func (ev *Event) Init(e *Engine, name string) {
	ev.e = e
	ev.name = name
}

// Wait parks the calling actor until the event is set.
func (ev *Event) Wait() {
	e := ev.e
	e.mu.Lock()
	if ev.set {
		e.mu.Unlock()
		return
	}
	tok := e.token()
	if ev.first == nil {
		ev.first = tok
	} else {
		ev.rest.push(tok)
	}
	e.parkLocked(tok, "event:", ev.name)
}

// Set sets the event and wakes every waiter. Setting it again is a no-op.
func (ev *Event) Set() {
	e := ev.e
	e.mu.Lock()
	if !ev.set {
		ev.set = true
		if ev.first != nil {
			e.wakeLocked(ev.first)
			ev.first = nil
			for _, tok := range ev.rest {
				e.wakeLocked(tok)
			}
			ev.rest.reset()
		}
	}
	e.mu.Unlock()
}
