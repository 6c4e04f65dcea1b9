package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"colony/internal/edge"
	"colony/internal/group"
	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wire"
)

// Errors returned by the connection API.
var (
	ErrNotInGroup = errors.New("core: connection is not in a peer group")
	ErrInGroup    = errors.New("core: connection is already in a peer group")
)

// ConnectOptions configure a client session.
type ConnectOptions struct {
	// Name is the device's unique node name.
	Name string
	// User and Secret authenticate against the cluster's session manager.
	// An unregistered user is auto-registered (convenience for experiments);
	// set RequireRegistration to disable.
	User, Secret        string
	RequireRegistration bool
	// DC is the index of the connected DC (tree root). Default 0.
	DC int
	// CacheLimit bounds the interest set; 0 means unlimited. When exceeded,
	// the least recently used objects are evicted (paper §6.1: cache
	// policies such as LRU).
	CacheLimit int
	// RetryInterval paces the commit pipeline's retries (scaled values for
	// tests).
	RetryInterval time.Duration
	// MaxUnacked bounds the async commit pipeline (see edge.Config); the
	// same bound applies to group-pending transactions after JoinGroup.
	MaxUnacked int
	// CallTimeout bounds each RPC to the DC (default 2s); experiments with
	// heavily loaded DCs raise it.
	CallTimeout time.Duration
	// AutoAdvanceThreshold bounds the device cache's per-object journals
	// via background base advancement (see edge.Config); 0 disables.
	AutoAdvanceThreshold int
}

// Connection is an application node's session with Colony: an edge device
// with a local cache, optionally attached to a peer group.
type Connection struct {
	cluster *Cluster
	node    *edge.Node
	token   string

	mu         sync.Mutex
	member     *group.Member
	cacheLimit int
	maxUnacked int
	lastUsed   map[txn.ObjectID]time.Time
}

// Connect opens a session: it authenticates the user with the session
// manager in the core cloud (§6.2), creates the device's edge node, wires
// its network links, and subscribes it to its DC.
func (c *Cluster) Connect(opts ConnectOptions) (*Connection, error) {
	if opts.Name == "" {
		return nil, errors.New("core: connection needs a Name")
	}
	if opts.User == "" {
		opts.User = opts.Name
	}
	if !opts.RequireRegistration {
		if _, err := c.sessions.Authenticate(opts.User, opts.Secret); err != nil {
			c.sessions.Register(opts.User, opts.Secret)
		}
	}
	token, err := c.sessions.Authenticate(opts.User, opts.Secret)
	if err != nil {
		return nil, fmt.Errorf("core: open session: %w", err)
	}
	if opts.DC < 0 || opts.DC >= len(c.dcs) {
		return nil, fmt.Errorf("core: no DC %d", opts.DC)
	}
	dcName := c.dcs[opts.DC].Name()
	node := edge.New(c.net.Transport(), edge.Config{
		Name:          opts.Name,
		Actor:         opts.User,
		DC:            dcName,
		RetryInterval: opts.RetryInterval,
		MaxUnacked:    opts.MaxUnacked,
		CallTimeout:   opts.CallTimeout,
		Obs:           c.cfg.Obs,

		AutoAdvanceThreshold: opts.AutoAdvanceThreshold,
	})
	// Far-edge link latency (cellular by default).
	c.linkEdge(opts.Name, dcName, c.cfg.Profile.EdgeLink)
	conn := &Connection{
		cluster:    c,
		node:       node,
		token:      token,
		cacheLimit: opts.CacheLimit,
		maxUnacked: opts.MaxUnacked,
		lastUsed:   make(map[txn.ObjectID]time.Time),
	}
	if err := node.Connect(); err != nil {
		node.Close()
		return nil, err
	}
	return conn, nil
}

// Close ends the session.
func (cn *Connection) Close() {
	cn.mu.Lock()
	member := cn.member
	cn.member = nil
	cn.mu.Unlock()
	if member != nil {
		member.Leave()
	}
	cn.cluster.sessions.CloseSession(cn.token)
	cn.node.Close()
}

// Name returns the device's node name.
func (cn *Connection) Name() string { return cn.node.Name() }

// User returns the authenticated user.
func (cn *Connection) User() string { return cn.node.Actor() }

// Node exposes the underlying edge node (stats, fault injection).
func (cn *Connection) Node() *edge.Node { return cn.node }

// State returns the session's state vector.
func (cn *Connection) State() vclock.Vector { return cn.node.State() }

// Flush blocks until every locally committed transaction has been
// acknowledged by the connected DC (or the timeout expires). Sessions that
// are about to close — or whose data other clients are about to read — call
// it to make their writes durable in the cloud.
func (cn *Connection) Flush(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cn.node.UnackedCount() == 0 {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("core: flush: %d transactions still unacknowledged", cn.node.UnackedCount())
}

// ObjectKey fetches the end-to-end encryption key for one shared object
// from the session manager (§5.3).
func (cn *Connection) ObjectKey(bucket, key string) ([]byte, error) {
	return cn.cluster.sessions.ObjectKey(cn.token, txn.ObjectID{Bucket: bucket, Key: key})
}

// OnUpdate subscribes a callback to an object's update events (§6.1,
// reactive programming). The callback runs on the goroutine that delivered
// the update; reading an object the cache lacks from inside it waits out the
// call timeout (see edge.Node.OnUpdate).
func (cn *Connection) OnUpdate(bucket, key string, fn func()) {
	cn.node.OnUpdate(txn.ObjectID{Bucket: bucket, Key: key}, func(txn.ObjectID) { fn() })
}

// Prefetch pulls objects into the local cache ahead of use.
func (cn *Connection) Prefetch(bucket string, keys ...string) error {
	ids := make([]txn.ObjectID, len(keys))
	for i, k := range keys {
		ids[i] = txn.ObjectID{Bucket: bucket, Key: k}
	}
	if err := cn.node.AddInterest(ids...); err != nil {
		return err
	}
	cn.touch(ids...)
	return nil
}

// Evict removes objects from the cache.
func (cn *Connection) Evict(bucket string, keys ...string) {
	ids := make([]txn.ObjectID, len(keys))
	for i, k := range keys {
		ids[i] = txn.ObjectID{Bucket: bucket, Key: k}
	}
	cn.node.RemoveInterest(ids...)
	cn.mu.Lock()
	for _, id := range ids {
		delete(cn.lastUsed, id)
	}
	cn.mu.Unlock()
}

// touch records cache usage and applies the LRU limit.
func (cn *Connection) touch(ids ...txn.ObjectID) {
	cn.mu.Lock()
	now := time.Now()
	for _, id := range ids {
		cn.lastUsed[id] = now
	}
	var evict []txn.ObjectID
	if cn.cacheLimit > 0 && len(cn.lastUsed) > cn.cacheLimit {
		type usage struct {
			id txn.ObjectID
			at time.Time
		}
		all := make([]usage, 0, len(cn.lastUsed))
		for id, at := range cn.lastUsed {
			all = append(all, usage{id: id, at: at})
		}
		sort.Slice(all, func(i, j int) bool { return all[i].at.Before(all[j].at) })
		for _, u := range all[:len(all)-cn.cacheLimit] {
			evict = append(evict, u.id)
			delete(cn.lastUsed, u.id)
		}
	}
	cn.mu.Unlock()
	if len(evict) > 0 {
		cn.node.RemoveInterest(evict...)
	}
}

// --- groups ---

// JoinGroup attaches the session to the peer group managed by parentName.
func (cn *Connection) JoinGroup(parentName string, variant group.CommitVariant) error {
	cn.mu.Lock()
	if cn.member != nil {
		cn.mu.Unlock()
		return ErrInGroup
	}
	cn.mu.Unlock()
	// Peer-group traffic rides the LAN latency class.
	cn.cluster.linkEdge(cn.node.Name(), parentName, cn.cluster.cfg.Profile.GroupLAN)
	m, err := group.Join(cn.node, group.MemberConfig{
		Parent: parentName, Variant: variant, MaxPending: cn.maxUnacked,
	})
	if err != nil {
		return err
	}
	cn.mu.Lock()
	cn.member = m
	cn.mu.Unlock()
	return nil
}

// LeaveGroup detaches from the current peer group and re-attaches the
// session directly to its DC.
func (cn *Connection) LeaveGroup(dcIndex int) error {
	cn.mu.Lock()
	member := cn.member
	cn.member = nil
	cn.mu.Unlock()
	if member == nil {
		return ErrNotInGroup
	}
	member.Leave()
	return cn.node.Migrate(cn.cluster.dcs[dcIndex].Name())
}

// MigrateGroup moves the session to a different peer group (§5.2).
func (cn *Connection) MigrateGroup(parentName string) error {
	cn.mu.Lock()
	member := cn.member
	cn.mu.Unlock()
	if member == nil {
		return ErrNotInGroup
	}
	cn.cluster.linkEdge(cn.node.Name(), parentName, cn.cluster.cfg.Profile.GroupLAN)
	next, err := member.MigrateTo(parentName)
	if err != nil {
		return err
	}
	cn.mu.Lock()
	cn.member = next
	cn.mu.Unlock()
	return nil
}

// MigrateDC re-attaches the session to a different DC tree (§3.8).
func (cn *Connection) MigrateDC(dcIndex int) error {
	name := cn.cluster.dcs[dcIndex].Name()
	cn.cluster.linkEdge(cn.node.Name(), name, cn.cluster.cfg.Profile.EdgeLink)
	return cn.node.Migrate(name)
}

// Member returns the group membership handle, or nil.
func (cn *Connection) Member() *group.Member {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.member
}

// RunAtDC ships a transaction to the connected DC for execution (§3.9).
func (cn *Connection) RunAtDC(fn func(read wire.TxReader, update wire.TxUpdater) error) error {
	_, err := cn.node.RunAtDC(fn)
	return err
}
