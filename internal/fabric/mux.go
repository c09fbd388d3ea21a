package fabric

// Mux demultiplexes the frames arriving at one node to per-port
// handlers. A host attaches a single Mux and then its RNIC, its
// migration tool and its out-of-band control endpoints each register a
// port, the way distinct sockets share one physical NIC.
type Mux struct {
	node     string
	handlers map[string]Handler
}

// NewMux attaches a mux as the node's frame handler and returns it.
func NewMux(n *Network, node string) *Mux {
	m := &Mux{node: node, handlers: make(map[string]Handler)}
	n.Attach(node, m.dispatch)
	return m
}

// Register installs the handler for a port, replacing any previous one.
// Handlers run inline on the scheduler loop and must not block.
func (m *Mux) Register(port string, h Handler) {
	m.handlers[port] = h
}

// Unregister removes a port handler; frames for it are then dropped.
func (m *Mux) Unregister(port string) {
	delete(m.handlers, port)
}

func (m *Mux) dispatch(f Frame) {
	if h, ok := m.handlers[f.Port]; ok {
		h(f)
	}
	// Frames for unregistered ports are silently dropped, like packets
	// to a closed socket.
}
