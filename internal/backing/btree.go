package backing

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/p4lru/p4lru/internal/kvindex"
)

// BTree adapts the kvindex database server (§3.2's backend: a B+ tree index
// over a value arena) as a Store, so the LruIndex server model is reusable
// as the second tier behind the serving engine.
//
// The uint64 a Get returns is the resolved database *index* — the quantity
// the paper's LruIndex caches — and every Get pays the B+ tree walk the
// cached index would have skipped. GetHinted is the full protocol shape
// (walk skipped when the caller supplies a cached index), which is what the
// differential test replays to pin this adapter's walk accounting against
// internal/kvindex's simulator.
//
// Put writes val into the key's arena slot (kvindex.Server.Write): the
// write-behind target when the engine caches value words. In the LruIndex
// deployment the cached uint64 is an index and evictions are clean; leave
// write-behind disabled there.
//
// Gets take no lock, so a miss never parks behind a write-behind drain; Puts
// serialize against each other only.
type BTree struct {
	srv *kvindex.Server

	// wmu serializes Puts against each other. Gets take no lock: they
	// resolve through kvindex.Server.Locate, which reads only the B+ tree
	// (read-only after load) and never the arena Puts write.
	wmu sync.Mutex

	walksTaken   atomic.Uint64 // Gets resolved through the B+ tree
	walksSkipped atomic.Uint64 // Gets short-circuited by a valid hint
	nodesWalked  atomic.Uint64 // total B+ tree nodes visited
}

// NewBTree builds a fresh kvindex server of `items` sequential keys and
// wraps it.
func NewBTree(items int) *BTree {
	return NewBTreeOver(kvindex.NewServer(items))
}

// NewBTreeOver wraps an existing kvindex server. The adapter assumes sole
// write access to it.
func NewBTreeOver(srv *kvindex.Server) *BTree {
	if srv == nil {
		panic("backing: NewBTreeOver(nil server)")
	}
	return &BTree{srv: srv}
}

// Server exposes the wrapped database (for tests).
func (b *BTree) Server() *kvindex.Server { return b.srv }

// Get implements Store: a full B+ tree resolution of key, returning the
// database index.
func (b *BTree) Get(ctx context.Context, key uint64) (uint64, error) {
	return b.GetHinted(ctx, key, 0, false)
}

// GetHinted resolves key the way the wire server does: when hinted, the
// cached index short-circuits the walk (falling back to it only if the hint
// is corrupt); otherwise the B+ tree is walked and charged.
func (b *BTree) GetHinted(ctx context.Context, key, hint uint64, hinted bool) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	idx, nodes, ok := b.srv.Locate(key, hint, hinted)
	if !ok {
		b.nodesWalked.Add(uint64(nodes))
		b.walksTaken.Add(1)
		return 0, ErrNotFound
	}
	if nodes == 0 {
		b.walksSkipped.Add(1)
	} else {
		b.walksTaken.Add(1)
		b.nodesWalked.Add(uint64(nodes))
	}
	return idx, nil
}

// Put implements Store: it writes val into key's arena slot, paying the
// locating walk.
func (b *BTree) Put(ctx context.Context, key, val uint64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	b.wmu.Lock()
	nodes, ok := b.srv.Write(key, val)
	b.wmu.Unlock()
	b.nodesWalked.Add(uint64(nodes))
	b.walksTaken.Add(1)
	if !ok {
		return ErrNotFound
	}
	return nil
}

// Stats returns (walks taken, walks skipped, nodes walked) — the same
// miss-cost accounting internal/kvindex's simulator reports, so the two
// miss-path models can be diffed.
func (b *BTree) Stats() (taken, skipped, nodes uint64) {
	return b.walksTaken.Load(), b.walksSkipped.Load(), b.nodesWalked.Load()
}
