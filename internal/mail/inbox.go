package mail

// Inbox is the messages a user agent has retrieved and not yet handed on, in
// retrieval order. It works with the agent's IDSet of every message it has
// ever delivered — the duplicate-suppression memory that recognises a copy
// which failed over to a second server, and which outlives what is held. The
// zero value is empty.
type Inbox []Stored

// Absorb takes the slice a mailbox drained and gave away, drops every copy
// seen already holds, and reports how many messages were new; Newest returns
// those. When nothing is held and nothing is a duplicate the slice itself
// becomes the inbox instead of being copied — with its capacity clipped, so
// that a later Absorb's append moves to a fresh array and never writes the
// adopted one.
func (in *Inbox) Absorb(seen *IDSet, msgs []Stored) (fresh int) {
	if len(msgs) == 0 {
		return 0
	}
	adopt := len(*in) == 0
	for i := range msgs {
		if !seen.Add(msgs[i].ID) {
			if adopt {
				adopt = false
				*in = append(*in, msgs[:i]...)
			}
			continue
		}
		if !adopt {
			*in = append(*in, msgs[i])
		}
		fresh++
	}
	if adopt {
		*in = msgs[:len(msgs):len(msgs)]
	}
	return fresh
}

// Newest returns the last n messages: right after an Absorb that reported n,
// the ones it added. Read-only for the caller.
func (in Inbox) Newest(n int) []Stored { return in[len(in)-n:] }

// Since returns the caller's own copy of the messages from mark on; the agent
// keeps them. GetMail is Since(the length before its walk), Inbox is Since(0).
func (in Inbox) Since(mark int) []Stored { return append([]Stored(nil), in[mark:]...) }

// Take hands over the messages from mark on, not copied, and forgets all that
// is held. The batch may be a slice a mailbox gave away (see Absorb): it is
// read-only for every holder; the last one may Release it.
func (in *Inbox) Take(mark int) []Stored {
	out := (*in)[mark:]
	*in = nil
	return out
}
