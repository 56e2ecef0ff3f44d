package telemetry

// Record is one event in a run log: the schema core.Simulate writes
// (Sinks.Log), internal/assert checks online and offline, and dvsim
// -check replays. Its JSON tags are the log's field names and order.
type Record struct {
	// T is the simulated time in seconds.
	T float64 `json:"t"`
	// Event is "mode", "result" or "death" for plain logs; telemetry
	// logs add "sample", "link", "latency", — when a fault scenario is
	// active — "fault" (an injected drop/garble/crash/restart) and
	// "retry" (a scheduled retransmission), — when a governor is
	// active — "govern" (one online DVS decision), and — when an
	// assertion catalog is active — "violation" (one failed invariant).
	Event string `json:"event"`
	// Node is the acting node ("node1", …); empty for host events. For
	// sample events it is the sampler's node label.
	Node string `json:"node,omitempty"`
	// Mode and MHz describe a mode span ("idle", "communication",
	// "computation"); End is the span's end time.
	Mode string  `json:"mode,omitempty"`
	MHz  float64 `json:"mhz,omitempty"`
	End  float64 `json:"end,omitempty"`
	// Frame tags result and latency events.
	Frame int `json:"frame,omitempty"`
	// From tags result events with the delivering node and link events
	// with the sending port; To is a link event's receiving port.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// Metric and Value carry sample events (battery_soc, port_pending,
	// …); Value doubles as the seconds figure of latency events and the
	// observed quantity of violation events.
	Metric string  `json:"metric,omitempty"`
	Value  float64 `json:"value,omitempty"`
	// Kind, KB and DurS describe a link event's transaction: message
	// kind, payload size and wire time (startup included). Kind also
	// tags fault and retry events with the affected message kind and
	// violation events with the assertion's operator type.
	Kind string  `json:"kind,omitempty"`
	KB   float64 `json:"kb,omitempty"`
	DurS float64 `json:"dur_s,omitempty"`
	// Fault is the injected fault kind ("drop", "garble", "crash",
	// "restart") of fault events, and the cause of retry events.
	Fault string `json:"fault,omitempty"`
	// Attempt is the failed transmission a retry event recovers from
	// (1-based); its backoff duration rides in Value.
	Attempt int `json:"attempt,omitempty"`
	// FromMHz is a govern event's pre-decision compute clock; the
	// decided clock rides in MHz and the frame's slack in Value.
	FromMHz float64 `json:"from_mhz,omitempty"`
	// Queue is a govern event's observed inbound backlog.
	Queue int `json:"queue,omitempty"`
	// Ctl carries a govern event's controller terms (governor.Terms).
	// The fixed-size array spares one heap allocation per govern event;
	// omitzero drops it when all three terms are zero.
	Ctl [3]float64 `json:"ctl,omitzero"`
	// Assert names a violation event's failed invariant; Detail is its
	// deterministic account and Bound the limit the observed Value
	// broke (see internal/assert).
	Assert string  `json:"assert,omitempty"`
	Detail string  `json:"detail,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
}
