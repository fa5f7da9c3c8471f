// Package topology builds the multi-node network graphs the experiments
// run on: the paper's Figure-1 chain, generalized chains for escalation
// sweeps, and many-to-one attack topologies with a bottleneck tail
// circuit. It also computes static shortest-path routing in state
// linear in the node count: the build peels the trees that hang off the
// graph's 2-core, searches only the core, and answers toward and within
// the trees from their pre-order intervals (see Routes).
package topology

import (
	"fmt"
	"slices"
	"sort"
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
	adj    [][]NodeID // indexed by NodeID, in the order links were added
	// back[u][j] is u's index in the neighbor list of adj[u][j], so a
	// search crossing that link learns the port back to u without a scan.
	back [][]int32
}

// New returns an empty topology.
func New() *Topology {
	return &Topology{byAddr: make(map[flow.Addr]NodeID)}
}

// AddNode adds a node and returns its ID. Names and addresses must be
// unique. AddNode panics on a duplicate address (topologies are built
// by code, not parsed from untrusted input); Validate reports a
// duplicate name.
func (t *Topology) AddNode(name string, addr flow.Addr, kind Kind, as int) NodeID {
	if _, dup := t.byAddr[addr]; dup {
		panic(fmt.Sprintf("topology: duplicate address %v", addr))
	}
	id := NodeID(len(t.Nodes))
	t.Nodes = append(t.Nodes, Node{ID: id, Addr: addr, Name: name, Kind: kind, AS: as})
	t.adj = append(t.adj, nil)
	t.back = append(t.back, nil)
	t.byAddr[addr] = id
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

// ID returns the ID of the node with the given address.
func (t *Topology) ID(addr flow.Addr) (NodeID, bool) {
	id, ok := t.byAddr[addr]
	return id, ok
}

// Neighbors returns the IDs adjacent to id, in the order their links
// were added; Routes.Port's answers index this list.
func (t *Topology) Neighbors(id NodeID) []NodeID {
	return t.adj[id]
}

// NoRoute is the NodeID of no node: no next hop, or a node the
// component search has not reached yet.
const NoRoute NodeID = -1

// Routes is the static routing of a topology in one entry per node and
// one next-hop table over the graph's 2-core, so its size grows with n
// plus the core's square, not with n².
//
// Every node not in the 2-core hangs in a tree from one core node, its
// attachment (see Topology.Routes). Each node's entry holds the
// pre-order interval of the nodes below it, children numbered in
// neighbor-list order, and a tree node's port up toward its parent.
// A tree node routes up, save toward a node in its interval, which it
// routes to the child whose interval holds it. A core node routes
// toward a node hanging from it by that node's branch, and toward any
// other by its core table entry toward the core node the destination
// is or hangs from. A lookup reads the two nodes' entries, a cache line
// each, then one core table entry or, below a tree node, a binary
// search over its children's pre-order numbers.
type Routes struct {
	adj   [][]NodeID
	nodes []route
	core  []int32 // ports between 2-core nodes, nc rows of nc by core index
	nc    int
}

// route is one node's entry in Routes.
type route struct {
	up   int32    // a tree node's port toward its parent; unreached on a core node
	down int32    // a tree node's attachment's port toward the node's branch
	pre  int32    // the node's pre-order number
	end  int32    // one past the pre-order numbers of the nodes below it
	core int32    // the core table index of the node, or of its attachment
	comp int32    // the lowest NodeID in the node's component
	_    [2]int32 // pads an entry to 32 bytes, so none straddles a cache line
}

// Port returns the index, in from's neighbor list, of its next hop
// toward dst. from and dst must be two distinct nodes of one
// component.
//
// aitf:noalloc
func (r *Routes) Port(from, dst NodeID) int {
	f, d := &r.nodes[from], &r.nodes[dst]
	switch {
	case d.pre <= f.pre || d.pre >= f.end:
		if f.up != unreached {
			return int(f.up)
		}
		return int(r.core[int(f.core)*r.nc+int(d.core)])
	case f.up == unreached:
		return int(d.down)
	}
	// dst is below tree node from. Its children, every neighbor but up,
	// start their intervals in neighbor-list order: take the last child
	// that starts at or before dst.
	nbrs, up := r.adj[from], int(f.up)
	skipUp := func(i int) int {
		if i >= up {
			return i + 1
		}
		return i
	}
	return skipUp(sort.Search(len(nbrs)-1, func(i int) bool { return r.nodes[nbrs[skipUp(i)]].pre > d.pre }) - 1)
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
// runs as one from a(d) would, so every node outside that branch routes
// toward d as toward a(d): a core node other than a(d) by its entry
// toward a(d), a tree node up.
func (t *Topology) Routes() *Routes {
	n := len(t.Nodes)
	r := &Routes{adj: t.adj, nodes: make([]route, n)}
	nodes := r.nodes

	// Peel: up becomes the port of a peeled node's one neighbor left, its
	// parent; the core keeps up = unreached. peel ends up holding the
	// peeled nodes in the order they went, each before its parent.
	deg, peel := make([]int32, n), make([]NodeID, 0, n)
	for v, nbrs := range t.adj {
		deg[v] = int32(len(nbrs))
		nodes[v].up, nodes[v].comp = unreached, int32(NoRoute)
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
		j := slices.IndexFunc(t.adj[v], func(u NodeID) bool { return nodes[u].up == unreached })
		u := t.adj[v][j]
		nodes[v].up, deg[v], deg[u] = int32(j), 0, deg[u]-1
		if deg[u] == 1 {
			peel = append(peel, u)
		}
		peel[kept] = v
		kept++
	}
	peel = peel[:kept]

	// Index the 2-core, the unpeeled nodes left with links. A tree
	// component's root has none and needs no index: every other node of
	// its component hangs from it.
	for c := range nodes {
		if nodes[c].up == unreached && deg[c] > 0 {
			nodes[c].core = int32(r.nc)
			r.nc++
		}
	}
	r.core = make([]int32, r.nc*r.nc)

	// Search the core: port (deg's storage) starts as up, so each tree
	// node holds a port and walls the search off. comp holds, for now,
	// the lowest core node of each component.
	port := deg
	for v := range nodes {
		port[v] = nodes[v].up
	}
	var queue []NodeID
	for c := range NodeID(n) {
		if nodes[c].up != unreached {
			continue
		}
		queue = t.bfs(c, port, queue)
		for _, v := range queue {
			if nodes[v].comp == int32(NoRoute) {
				nodes[v].comp = int32(c)
			}
			if len(queue) > 1 { // not a tree component's lone root
				r.core[int(nodes[v].core)*r.nc+int(nodes[c].core)] = port[v]
			}
			port[v] = unreached
		}
	}

	// Number the nodes in pre-order, top-down. end first holds subtree
	// sizes, summed along the peel order. Each core node takes the next
	// free block of its size and hands its children, in neighbor-list
	// order, consecutive blocks inside its own; then each tree node,
	// parents before children, does the same. A child inherits its
	// parent's core index, component and down port, except that a
	// branch's top takes its attachment's port toward it.
	for v := range nodes {
		nodes[v].end = 1
	}
	for _, v := range peel {
		nodes[t.adj[v][nodes[v].up]].end += nodes[v].end
	}
	number := func(u NodeID) {
		at := nodes[u].pre + 1
		for j, c := range t.adj[u] {
			if child := &nodes[c]; child.up == t.back[u][j] {
				child.pre, at = at, at+child.end
				child.end, child.core, child.comp, child.down = at, nodes[u].core, nodes[u].comp, nodes[u].down
				if nodes[u].up == unreached {
					child.down = int32(j)
				}
			}
		}
	}
	next := int32(0)
	for c := range NodeID(n) {
		if nodes[c].up == unreached {
			nodes[c].pre, next = next, next+nodes[c].end
			nodes[c].end = next
			number(c)
		}
	}
	for i := len(peel) - 1; i >= 0; i-- {
		number(peel[i])
	}

	// Relabel each component by its lowest node, in port's storage.
	low := port
	for v := range low {
		low[v] = unreached
	}
	for v := range nodes {
		c := nodes[v].comp
		if low[c] == unreached {
			low[c] = int32(v)
		}
		nodes[v].comp = low[c]
	}
	return r
}

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

// Validate checks that node names are unique and that the graph is
// connected, so every node has at least one link and a route to every
// other.
func (t *Topology) Validate() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("topology: empty")
	}
	names := make(map[string]struct{}, len(t.Nodes))
	for _, n := range t.Nodes {
		if _, dup := names[n.Name]; dup {
			return fmt.Errorf("topology: duplicate name %q", n.Name)
		}
		names[n.Name] = struct{}{}
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
