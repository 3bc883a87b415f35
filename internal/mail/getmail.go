package mail

// Visit is what the §3.1.2c walk found at one authority server.
type Visit uint8

const (
	// Absent: the key names no server at all; the walk passes it by.
	Absent Visit = iota
	// Down: the server is down, or its poll failed. It joins
	// PreviouslyUnavailableServers and the walk goes on down the list.
	Down
	// Polled: the server is up and gave what mail it had, possibly none.
	Polled
)

// Poller is what the walk asks of the agent that runs it. K is the key a
// server goes by: a node ID on the simulated network, a name on the live one.
// The agent itself implements it, so a retrieval allocates no closure.
type Poller[K comparable] interface {
	// Poll probes server k and, when it is up, retrieves the user's mail from
	// it into the agent's inbox. With Polled it also returns LastStartTime[k],
	// on the clock the agent keeps LastCheckingTime on.
	Poll(k K) (v Visit, lastStart int64)
}

// Unavailable is §3.1.2c's PreviouslyUnavailableServers, the half of GetMail's
// per-user state that is a set; the other half, LastCheckingTime, is a number
// the agent keeps on its own clock. Nil until a server is found unavailable,
// which most agents never see.
type Unavailable[K comparable] map[K]bool

// Walk runs the paper's retrieval algorithm over the user's authority list.
// Following the pseudocode:
//
//	CurrentCheckingTime := CurrentTime
//	walk the authority list; for each live server: get mail, drop it from
//	PreviouslyUnavailableServers, and stop as soon as a server has been up
//	since before LastCheckingTime (no older mail can be anywhere else);
//	dead servers join PreviouslyUnavailableServers.
//	Then collect from any live servers still in
//	PreviouslyUnavailableServers (they may hold mail deposited while they
//	were thought unavailable).
//	LastCheckingTime := CurrentCheckingTime
//
// The first and last lines are the caller's: it reads its clock before the
// walk, passes the LastCheckingTime it holds, and stores the reading after.
// Walk returns how many servers its first pass found unavailable.
func (u *Unavailable[K]) Walk(a Poller[K], list []K, lastChecking int64) (unavailable int) {
	for _, k := range list {
		v, lastStart := a.Poll(k)
		switch v {
		case Down:
			unavailable++
			if *u == nil {
				*u = make(Unavailable[K])
			}
			(*u)[k] = true
			continue
		case Absent:
			continue
		}
		delete(*u, k)
		if lastChecking > lastStart {
			break
		}
	}
	// "Get old mail in servers that might have it but were unavailable."
	for _, k := range list { // list order keeps runs deterministic
		if !(*u)[k] {
			continue
		}
		if v, _ := a.Poll(k); v == Polled {
			delete(*u, k)
		}
	}
	return unavailable
}

// Listed returns the servers of list that are in the set, in list order.
func (u Unavailable[K]) Listed(list []K) []K {
	var out []K
	for _, k := range list {
		if u[k] {
			out = append(out, k)
		}
	}
	return out
}
