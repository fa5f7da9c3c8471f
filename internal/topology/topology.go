// Package topology builds the multi-node network graphs the experiments
// run on: the paper's Figure-1 chain, generalized chains for escalation
// sweeps, and many-to-one attack topologies with a bottleneck tail
// circuit. It also computes static shortest-path routing: one
// bit-packed row per node naming, for every destination, the port of
// the next hop in the node's neighbor list. The build searches only the
// graph's 2-core, left after peeling the trees that hang off it, and
// fills the tree entries from where each tree attaches (see Routes).
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
// Entries toward the node itself or toward another component hold some
// port (in a tree node's row, its port up toward the core); Next tells
// them apart by a component label per node.
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

// set overwrites the entry for dst with port, indexed as Port reads it.
func (r Row) set(dst NodeID, port int32) {
	if r.words == nil {
		return
	}
	u, k := uint(dst), uint(r.log)
	w, off := &r.words[u>>(6-k)], u<<k&63
	*w = *w&^((1<<(1<<k)-1)<<off) | uint64(port)<<off
}

// fill sets every entry of the row to port.
func (r Row) fill(port int32) {
	pattern := uint64(port) * (^uint64(0) / (1<<(1<<r.log) - 1))
	for i := range r.words {
		r.words[i] = pattern
	}
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
// hop-count shortest path. Among equal paths a node takes the neighbor
// a BFS from the destination reached it from first, which follows the
// order links were added, deterministically.
//
// Only the graph's 2-core is searched. Peeling nodes of degree 1 until
// none is left splits the graph into the core and trees hanging off it,
// each attached to one core node; a component that is a tree keeps one
// unpeeled node, its root, as its whole core. A tree has one path
// between any two of its nodes, and every path from outside the branch
// holding a tree node d into it passes through the core node a(d) the
// branch hangs from. A BFS from a core node enters a branch only
// through its a(d) and finds nothing outside the branch from inside it,
// so it dequeues core nodes in the same order whether or not it crosses
// the trees: one restricted to the core finds the same next hops
// between core nodes. A BFS from d, once it leaves d's branch at a(d),
// runs as one from a(d) would, so every node x outside that branch has
// row[x][d] = row[x][a(d)]. Core rows take their entries toward tree
// nodes from that; a tree node's row is its port up toward the core,
// save toward the nodes below it.
func (t *Topology) Routes() *Routes {
	n := len(t.Nodes)
	r := &Routes{adj: t.adj, rows: make([]Row, n), comp: slices.Repeat([]NodeID{NoRoute}, n)}
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

	// Peel: up[v] becomes the port of a peeled node's one neighbor left,
	// its parent; the core keeps up = unreached. peel ends up holding the
	// peeled nodes in the order they went, each before its parent.
	deg, up, peel := make([]int32, n), make([]int32, n), make([]NodeID, 0, n)
	for v, nbrs := range t.adj {
		deg[v], up[v] = int32(len(nbrs)), unreached
		if len(nbrs) == 1 {
			peel = append(peel, NodeID(v))
		}
	}
	kept := 0
	for head := 0; head < len(peel); head++ {
		v := peel[head]
		if deg[v] != 1 {
			continue // its last neighbor went first: v roots a tree component
		}
		j := slices.IndexFunc(t.adj[v], func(u NodeID) bool { return up[u] == unreached })
		u := t.adj[v][j]
		up[v], deg[v], deg[u] = int32(j), 0, deg[u]-1
		if deg[u] == 1 {
			peel = append(peel, u)
		}
		peel[kept] = v
		kept++
	}
	peel = peel[:kept]
	parent := func(v NodeID) NodeID { return t.adj[v][up[v]] }

	// Search the core: port (deg's storage) starts as up, so each tree
	// node holds a port and walls the search off. comp holds, for now,
	// the lowest core node of each component.
	port := deg
	copy(port, up)
	var queue []NodeID
	for c := range NodeID(n) {
		if up[c] != unreached {
			continue
		}
		queue = t.bfs(c, port, queue)
		for _, v := range queue {
			if r.comp[v] == NoRoute {
				r.comp[v] = c
			}
			r.rows[v].set(c, port[v])
			port[v] = unreached
		}
	}

	// Attach and fill the trees, parents before children. top[d] is the
	// node of d's branch next to the core, so a(d) = parent(top[d]). A
	// tree row holds its up port in every entry; then each ancestor of d
	// takes its port down toward d.
	top := make([]NodeID, n)
	for i := len(peel) - 1; i >= 0; i-- {
		d := peel[i]
		top[d] = d
		if p := parent(d); up[p] != unreached {
			top[d] = top[p]
		}
		r.comp[d] = r.comp[parent(top[d])]
		r.rows[d].fill(up[d])
		for child, p := d, parent(d); up[p] != unreached; child, p = p, parent(p) {
			r.rows[p].set(d, t.back[child][up[child]])
		}
	}
	for c := range NodeID(n) {
		if row := r.rows[c]; up[c] == unreached && row.words != nil {
			for _, d := range peel {
				tp := top[d]
				if a := parent(tp); a == c {
					row.set(d, t.back[tp][up[tp]])
				} else {
					row.set(d, int32(row.Port(a)))
				}
			}
		}
	}

	// Relabel each component by its lowest node, in top's storage.
	low := top
	for v := range low {
		low[v] = NoRoute
	}
	for v, c := range r.comp {
		if low[c] == NoRoute {
			low[c] = NodeID(v)
		}
		r.comp[v] = low[c]
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

// bfs visits, in breadth-first order, every node reachable from root
// through nodes whose port entry (one per node) is unreached; any other
// entry walls its node off. It returns the visited nodes in that order,
// root first, in queue's storage, and sets each one's entry: 0 for
// root, else the index in the node's neighbor list of the node it was
// first reached from, which is its next hop toward root.
func (t *Topology) bfs(root NodeID, port []int32, queue []NodeID) []NodeID {
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
	port := slices.Repeat([]int32{unreached}, len(t.Nodes))
	t.bfs(0, port, nil)
	for id, p := range port {
		if p == unreached {
			return fmt.Errorf("topology: %s cannot reach %s", t.Nodes[0].Name, t.Nodes[id].Name)
		}
	}
	return nil
}
