// Package topology builds the multi-node network graphs the experiments
// run on: the paper's Figure-1 chain, generalized chains for escalation
// sweeps, and many-to-one attack topologies with a bottleneck tail
// circuit. It also computes static shortest-path routing tables.
package topology

import (
	"fmt"
	"time"

	"aitf/internal/flow"
)

// NodeID indexes a node within one Topology.
type NodeID int

// Kind classifies nodes. Only hosts and border routers are AITF nodes
// (§II-A); internal routers just forward.
type Kind uint8

// Node kinds.
const (
	KindHost Kind = iota
	KindBorderRouter
	KindInternalRouter
)

func (k Kind) String() string {
	switch k {
	case KindHost:
		return "host"
	case KindBorderRouter:
		return "border-router"
	case KindInternalRouter:
		return "internal-router"
	default:
		return "kind?"
	}
}

// Node is a vertex in the topology.
type Node struct {
	ID   NodeID
	Addr flow.Addr
	Name string
	Kind Kind
	// AS is the autonomous domain the node belongs to. Border routers
	// sit at the edge of their AS.
	AS int
}

// LinkSpec is an undirected edge with transmission characteristics.
type LinkSpec struct {
	A, B NodeID
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// Bandwidth is the link rate in bytes/second; 0 means unlimited
	// (no serialization delay).
	Bandwidth float64
	// QueueLen is the output queue capacity in packets; 0 means the
	// netsim default.
	QueueLen int
}

// Topology is a static network graph.
type Topology struct {
	Nodes []Node
	Links []LinkSpec

	byAddr map[flow.Addr]NodeID
	byName map[string]NodeID
	adj    [][]NodeID // indexed by NodeID
}

// New returns an empty topology.
func New() *Topology {
	return &Topology{
		byAddr: make(map[flow.Addr]NodeID),
		byName: make(map[string]NodeID),
	}
}

// AddNode adds a node and returns its ID. Names and addresses must be
// unique; AddNode panics on duplicates (topologies are built by code,
// not parsed from untrusted input).
func (t *Topology) AddNode(name string, addr flow.Addr, kind Kind, as int) NodeID {
	if _, dup := t.byAddr[addr]; dup {
		panic(fmt.Sprintf("topology: duplicate address %v", addr))
	}
	if _, dup := t.byName[name]; dup {
		panic(fmt.Sprintf("topology: duplicate name %q", name))
	}
	id := NodeID(len(t.Nodes))
	t.Nodes = append(t.Nodes, Node{ID: id, Addr: addr, Name: name, Kind: kind, AS: as})
	t.adj = append(t.adj, nil)
	t.byAddr[addr] = id
	t.byName[name] = id
	return id
}

// AddLink connects a and b.
func (t *Topology) AddLink(a, b NodeID, delay time.Duration, bandwidth float64, queueLen int) {
	if a == b {
		panic("topology: self link")
	}
	t.Links = append(t.Links, LinkSpec{A: a, B: b, Delay: delay, Bandwidth: bandwidth, QueueLen: queueLen})
	t.adj[a] = append(t.adj[a], b)
	t.adj[b] = append(t.adj[b], a)
}

// Lookup returns the node with the given address.
func (t *Topology) Lookup(addr flow.Addr) (Node, bool) {
	id, ok := t.byAddr[addr]
	if !ok {
		return Node{}, false
	}
	return t.Nodes[id], true
}

// ByName returns the node with the given name.
func (t *Topology) ByName(name string) (Node, bool) {
	id, ok := t.byName[name]
	if !ok {
		return Node{}, false
	}
	return t.Nodes[id], true
}

// Neighbors returns the IDs adjacent to id.
func (t *Topology) Neighbors(id NodeID) []NodeID {
	return t.adj[id]
}

// NoRoute is the Routes.Next answer for a node toward itself or toward
// a destination it cannot reach.
const NoRoute NodeID = -1

// Routes is the static routing of a topology: the next hop from every
// node toward every other, one flat n×n table.
type Routes struct {
	n    int
	next []int32 // next[from*n+dst]; int32 halves the table, NodeIDs fit
}

// Next returns the neighbor of from on the shortest path toward dst, or
// NoRoute.
func (r *Routes) Next(from, dst NodeID) NodeID {
	return NodeID(r.next[int(from)*r.n+int(dst)])
}

// Routes computes the next hop from every node toward every other by
// hop-count shortest path (BFS from each destination). Among equal
// paths a node takes the neighbor the BFS reached it from first, which
// follows the order links were added, deterministically.
func (t *Topology) Routes() *Routes {
	n := len(t.Nodes)
	r := &Routes{n: n, next: make([]int32, n*n)}
	for i := range r.next {
		r.next[i] = int32(NoRoute)
	}
	parent := make([]NodeID, n)
	var queue []NodeID
	for d := range t.Nodes {
		// parent[v] is v's next hop toward d, for every v the BFS reached.
		queue = t.bfs(NodeID(d), parent, queue)
		for _, v := range queue[1:] {
			r.next[int(v)*n+d] = int32(parent[v])
		}
	}
	return r
}

// bfs visits every node reachable from root in breadth-first order and
// returns them in that order, root first, in queue's storage. parent
// (one entry per node) is overwritten: NoRoute for nodes not reached,
// else the node each was first reached from (root from itself).
func (t *Topology) bfs(root NodeID, parent, queue []NodeID) []NodeID {
	for i := range parent {
		parent[i] = NoRoute
	}
	parent[root] = root
	queue = append(queue[:0], root)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range t.adj[u] {
			if parent[v] == NoRoute {
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return queue
}

// Validate checks that the graph is connected, so every node has at
// least one link and a route to every other.
func (t *Topology) Validate() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("topology: empty")
	}
	// The links are undirected: if the first node reaches every node,
	// every node reaches every other through it.
	parent := make([]NodeID, len(t.Nodes))
	t.bfs(0, parent, nil)
	for id, p := range parent {
		if p == NoRoute {
			return fmt.Errorf("topology: %s cannot reach %s", t.Nodes[0].Name, t.Nodes[id].Name)
		}
	}
	return nil
}
