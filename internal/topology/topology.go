// Package topology builds the multi-node network graphs the experiments
// run on: the paper's Figure-1 chain, generalized chains for escalation
// sweeps, and many-to-one attack topologies with a bottleneck tail
// circuit. It also computes static shortest-path routing: one
// bit-packed row per node naming, for every destination, the port of
// the next hop in the node's neighbor list (see Routes).
package topology

import (
	"fmt"
	"slices"
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
	adj    [][]NodeID // indexed by NodeID, in the order links were added
	// back[u][j] is u's index in the neighbor list of adj[u][j], so a
	// search crossing that link learns the port back to u without a scan.
	back [][]int32
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
	t.back = append(t.back, nil)
	t.byAddr[addr] = id
	t.byName[name] = id
	return id
}

// AddLink connects a and b. It panics on a self link and on a second
// link between the same two nodes: a node's interfaces are known by the
// neighbor they reach, so a parallel link could carry routed traffic
// that loss and link-state faults aimed at the neighbor never touch.
func (t *Topology) AddLink(a, b NodeID, delay time.Duration, bandwidth float64, queueLen int) {
	if a == b {
		panic("topology: self link")
	}
	// Scan the shorter neighbor list; a host's holds one entry.
	short, other := a, b
	if len(t.adj[b]) < len(t.adj[a]) {
		short, other = b, a
	}
	if slices.Contains(t.adj[short], other) {
		panic(fmt.Sprintf("topology: parallel link %s-%s", t.Nodes[a].Name, t.Nodes[b].Name))
	}
	t.Links = append(t.Links, LinkSpec{A: a, B: b, Delay: delay, Bandwidth: bandwidth, QueueLen: queueLen})
	t.back[a] = append(t.back[a], int32(len(t.adj[b])))
	t.back[b] = append(t.back[b], int32(len(t.adj[a])))
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

// Neighbors returns the IDs adjacent to id, in the order their links
// were added; a Routes row's ports index this list.
func (t *Topology) Neighbors(id NodeID) []NodeID {
	return t.adj[id]
}

// NoRoute is the Routes.Next answer for a node toward itself or toward
// a destination it cannot reach.
const NoRoute NodeID = -1

// Routes is the static routing of a topology: one packed row per node
// naming its next hop toward every destination as a port, the index of
// that hop in the node's neighbor list.
//
// A row's entries share one width, the smallest power of two in
// {0, 1, 2, 4, 8, 16, 32} bits that holds degree−1, so no entry
// straddles a 64-bit word. A one-link host needs no storage; a two-link
// gateway needs one bit per destination. Every row starts on a word of
// one shared []uint64, which holds no pointers for the GC to scan.
// Entries toward the node itself or toward another component hold 0;
// Next tells them apart by a component label per node.
type Routes struct {
	adj  [][]NodeID
	rows []Row
	comp []NodeID // the lowest NodeID in each node's component
}

// Row is one node's next-hop ports, indexed by destination NodeID.
type Row struct {
	words []uint64 // nil for a row of width 0
	log   uint8    // log2 of the entry width in bits, when words != nil
}

// Port returns the index, in the node's neighbor list, of its next hop
// toward dst. The answer is meaningful only for another node of the
// same component; toward any other node it is some port, not NoRoute.
//
// aitf:noalloc
func (r Row) Port(dst NodeID) int {
	if r.words == nil {
		return 0
	}
	// uint is 32 bits on 32-bit platforms; u<<k may overflow there, but
	// only its low six bits, the offset within the word, are kept.
	u, k := uint(dst), uint(r.log)
	return int(r.words[u>>(6-k)] >> (u << k & 63) & (1<<(1<<k) - 1))
}

// set ORs port into the (zero) entry for dst, indexed as Port reads it.
func (r Row) set(dst NodeID, port int32) {
	if r.words == nil {
		return
	}
	u, k := uint(dst), uint(r.log)
	r.words[u>>(6-k)] |= uint64(port) << (u << k & 63)
}

// Row returns node id's row. It shares the table's storage.
func (r *Routes) Row(id NodeID) Row { return r.rows[id] }

// Next returns the neighbor of from on the shortest path toward dst, or
// NoRoute.
func (r *Routes) Next(from, dst NodeID) NodeID {
	if from == dst || r.comp[from] != r.comp[dst] {
		return NoRoute
	}
	return r.adj[from][r.rows[from].Port(dst)]
}

// Routes computes the next hop from every node toward every other by
// hop-count shortest path (BFS from each destination). Among equal
// paths a node takes the neighbor the BFS reached it from first, which
// follows the order links were added, deterministically.
func (t *Topology) Routes() *Routes {
	n := len(t.Nodes)
	r := &Routes{adj: t.adj, rows: make([]Row, n), comp: make([]NodeID, n)}
	total := 0
	for id, nbrs := range t.adj {
		if len(nbrs) > 1 {
			r.rows[id].log = entryLog(len(nbrs) - 1)
			total += rowWords(n, r.rows[id].log)
		}
	}
	words := make([]uint64, total)
	for id := range r.rows {
		if row := &r.rows[id]; len(t.adj[id]) > 1 {
			w := rowWords(n, row.log)
			row.words, words = words[:w:w], words[w:]
		}
	}
	for i := range r.comp {
		r.comp[i] = NoRoute
	}
	port := make([]int32, n)
	var queue []NodeID
	for d := range t.Nodes {
		dst := NodeID(d)
		queue = t.bfs(dst, port, queue)
		if r.comp[d] == NoRoute {
			for _, v := range queue {
				r.comp[v] = dst
			}
		}
		for _, v := range queue[1:] {
			r.rows[v].set(dst, port[v])
		}
	}
	return r
}

// entryLog returns log2 of the narrowest entry width, 1 to 32 bits,
// that holds every port up to maxPort.
func entryLog(maxPort int) uint8 {
	k := uint8(0)
	for uint64(maxPort) >= 1<<(1<<k) {
		k++
	}
	return k
}

// rowWords is the 64-bit words a row of n entries 1<<k bits wide needs.
func rowWords(n int, k uint8) int { return (n<<k + 63) >> 6 }

// unreached marks, in bfs's port slice, a node the search has not
// reached.
const unreached int32 = -1

// bfs visits every node reachable from root in breadth-first order and
// returns them in that order, root first, in queue's storage. port (one
// entry per node) is overwritten: unreached for nodes not reached, 0
// for root, else the index in each node's neighbor list of the node it
// was first reached from, which is its next hop toward root.
func (t *Topology) bfs(root NodeID, port []int32, queue []NodeID) []NodeID {
	for i := range port {
		port[i] = unreached
	}
	port[root] = 0
	queue = append(queue[:0], root)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for j, v := range t.adj[u] {
			if port[v] == unreached {
				port[v] = t.back[u][j]
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
	port := make([]int32, len(t.Nodes))
	t.bfs(0, port, nil)
	for id, p := range port {
		if p == unreached {
			return fmt.Errorf("topology: %s cannot reach %s", t.Nodes[0].Name, t.Nodes[id].Name)
		}
	}
	return nil
}
