//go:build go1.23

package sim

import "iter"

// startCoroutine makes the coroutine that runs tok's actor. The hub calls
// it before the actor first runs, on its own goroutine: the runtime only
// resumes a coroutine on a thread whose lock state matches its creator's,
// and the hub's thread is never locked.
//
// The coroutine runs one actor body after another. Each tok.yield inside a
// body suspends it and returns from tok.resume. When a body has returned,
// the token goes back to e.spare and the coroutine yields until a later Go
// hands it a new body and the hub draws it, or until the hub stops it.
// A body that panics or calls runtime.Goexit ends the coroutine for good,
// and its token is never reused.
func (e *Engine) startCoroutine(tok *parkToken) {
	tok.resume, tok.stop = iter.Pull(func(yield func(struct{}) bool) {
		tok.yield = yield
		for {
			fn := tok.body
			tok.body = nil
			e.run(fn)
			e.mu.Lock()
			e.spare = append(e.spare, tok)
			e.mu.Unlock()
			if !yield(struct{}{}) {
				return
			}
		}
	})
}
