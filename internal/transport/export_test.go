package transport

// Buffered returns how many decoded payloads sit unclaimed in node
// inboxes: zero whenever the transport is idle, or an inbox leaked.
func (l *Live) Buffered() int {
	total := 0
	for _, n := range l.nodes {
		n.inbox.mu.Lock()
		total += len(n.inbox.msgs)
		n.inbox.mu.Unlock()
	}
	return total
}
