(** Destination-MAC shortest-path routing as declared intent. The handler
    only records observed source MACs (and floods the trigger packet); the
    declared policy compiles to one forwarding rule per (switch, known
    destination) pair, recomputed from the device manager and live links
    on every reconciliation. *)

include Controller.App_sig.INTENT_APP

val hosts_known : state -> int
(** Distinct source MACs observed so far. *)

val first_hops :
  Controller.Event.link list ->
  Openflow.Types.switch_id ->
  Openflow.Types.switch_id ->
  Openflow.Types.port_no option
(** [first_hops links dst sw] is [sw]'s shortest-path first-hop port
    towards [dst] over the directed [links]: the lowest (port, next)
    neighbour one hop closer to [dst], which is the port a BFS out of [sw]
    visiting neighbours in (port, next) order picks. [None] when [sw] is
    [dst] or cannot reach it. Apply it to [links] and [dst] once and query
    every switch: that runs one BFS per destination. *)
