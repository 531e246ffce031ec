// Fixture for the lockorder analyzer. It re-declares the shapes the
// rank table keys on — lockRanks uses bare "OwnerType.field" names
// precisely so the documented discipline is checkable here without
// importing the real package.
package fixture

import "sync"

type txState struct {
	mu      sync.Mutex
	pending int
}

type Trace interface {
	OnStage(stage string)
}

type Network struct {
	mu      sync.Mutex
	traceMu sync.Mutex
	tx      txState
	trace   Trace
	onDone  func(int)
}

// orderedOK acquires along the documented order: txState.mu (10)
// before Network.mu (30).
func (n *Network) orderedOK() {
	n.tx.mu.Lock()
	n.mu.Lock()
	n.tx.pending++
	n.mu.Unlock()
	n.tx.mu.Unlock()
}

func (n *Network) inverted() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tx.mu.Lock() // want "txState.mu acquired while holding Network.mu inverts the documented lock order"
	n.tx.mu.Unlock()
}

func (n *Network) invertedFromLeaf() {
	n.traceMu.Lock()
	defer n.traceMu.Unlock()
	n.mu.Lock() // want "Network.mu acquired while holding Network.traceMu inverts the documented lock order"
	n.mu.Unlock()
}

func (n *Network) reentrant() {
	n.mu.Lock()
	n.mu.Lock() // want "Network.mu locked while already held"
	n.mu.Unlock()
	n.mu.Unlock()
}

func (n *Network) callbackUnderLock(d int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.onDone(d) // want "callback field onDone invoked while holding Network.mu"
}

func (n *Network) traceUnderLock(stage string) {
	n.traceMu.Lock()
	defer n.traceMu.Unlock()
	n.trace.OnStage(stage) // want "callback Trace.OnStage invoked while holding Network.traceMu"
}

// probeUnderLock loads the callback into a local first; the engine
// still attributes the call to the field it came from.
func (n *Network) probeUnderLock(d int) {
	probe := n.onDone
	n.mu.Lock()
	defer n.mu.Unlock()
	probe(d) // want "callback local probe invoked while holding Network.mu"
}

// finishLocked holds its caller's lock by the *Locked convention: no
// visible Lock() call, but callbacks are still off-limits.
func (n *Network) finishLocked(d int) {
	n.onDone(d) // want "a caller-held lock"
}

func (n *Network) callbackAfterUnlockOK(d int) {
	n.mu.Lock()
	d += n.tx.pending
	n.mu.Unlock()
	n.onDone(d)
}

// earlyReturnKeepsState: the unlocking branch returns, so the
// fall-through path is still under the lock.
func (n *Network) earlyReturnKeepsState(d int) {
	n.mu.Lock()
	if d < 0 {
		n.mu.Unlock()
		return
	}
	n.onDone(d) // want "callback field onDone invoked while holding Network.mu"
	n.mu.Unlock()
}

func (n *Network) annotatedOK(d int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	//aqualint:callback-under-lock fixture stands in for the pipelined relay continuation, documented never to re-enter the network
	n.onDone(d)
}
