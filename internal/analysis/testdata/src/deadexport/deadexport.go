// Package main exercises deadexport: what production roots reach is
// live, what only tests (or nothing) reach is reported at the head of
// its dead subgraph.
package main

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"net/http"
)

type server struct{}

// handle is live: its method value is passed to http.HandleFunc.
func (s *server) handle(w http.ResponseWriter, r *http.Request) {}

// stored is live: a package-level var holds it.
func stored() {}

var hooks = []func(){stored}

// initHelper is live: an init calls it.
func initHelper() {}

func init() { initHelper() }

func main() {
	s := &server{}
	http.HandleFunc("/", s.handle)
	run()
	serve()
	for _, h := range hooks {
		h()
	}
}

/* want "stale spatialvet:ignore deadexport" */ //spatialvet:ignore deadexport (c) run is live, so this excuse suppresses nothing
func run() {
	fmt.Println("running")
}

// A suppression without a category is misused, live function or not.
/* want "must start with a category" */ //spatialvet:ignore deadexport no category given
func serve() {
	fmt.Println("serving")
}

// queue's heap.Interface methods are live: container/heap calls them.
type queue []int

func (q queue) Len() int           { return len(q) }
func (q queue) Less(i, j int) bool { return q[i] < q[j] }
func (q queue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *queue) Push(x any)        { *q = append(*q, x.(int)) }
func (q *queue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

var _ heap.Interface = (*queue)(nil)

// String, MarshalJSON, Error and Is are live: the standard library
// calls them.
type status int

func (s status) String() string { return fmt.Sprint(int(s)) }

type payload struct{}

func (payload) MarshalJSON() ([]byte, error) { return json.Marshal("payload") }

type notFound struct{}

func (*notFound) Error() string        { return "not found" }
func (*notFound) Is(target error) bool { return target == errSentinel }

var errSentinel = fmt.Errorf("sentinel")

// OnlyFromTests is called from deadexport_test.go alone: the head of a
// dead subgraph.
func OnlyFromTests() int { return deadHelper() } // want "OnlyFromTests is reachable from no production root"

// deadHelper is reachable only from a dead head: covered by its report.
func deadHelper() int { return 1 }

func unreachable() {} // want "unreachable is reachable from no production root"

// A dead cycle with no head outside it is reported once, at its
// smallest ID.
func cycleA() { cycleB() } // want "cycleA is reachable from no production root"
func cycleB() { cycleA() }

// oracle carries a justified suppression.
//
//spatialvet:ignore deadexport (a) reference oracle the tests compare against
func oracle() {}
