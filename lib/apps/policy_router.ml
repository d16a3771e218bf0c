open Openflow
open Controller

(* Destination-MAC routing declared as intent. [handle] only *observes*:
   it records which MACs exist and floods the triggering packet so nothing
   blackholes while tables converge. All rule installation happens through
   the declared policy — per-switch shortest-path routes recompiled by the
   runtime after every event (and by Crash-Pad during recovery). *)

type state = Types.mac list  (* destinations seen, sorted *)

let name = "policy_router"
(* Packet-ins only: the routes themselves are derived from the *live*
   topology (ctx links) at every reconcile, so the app has no need to
   watch link or switch events — a punted packet is precisely the signal
   that the compiled tables no longer cover the network. *)
let subscriptions = [ Event.K_packet_in ]
let init () = []

let hosts_known st = List.length st

(* [first_hops links dst sw]: [sw]'s first-hop port towards [dst] over
   [links], from one BFS out of [dst] over the reversed links. A switch
   forwards to its lowest (port, next) neighbour that is one hop closer to
   [dst]. That is the port a BFS out of [sw] itself picks when it queues
   its neighbours in (port, next) order, because every node such a BFS
   reaches inherits the first-queued neighbour on a shortest path to it.
   [None] for [dst] itself and for switches that cannot reach it. Staged:
   [first_hops links] indexes the links once, [first_hops links dst] runs
   the BFS once. *)
module Itbl = Hashtbl.Make (struct
  type t = Types.switch_id

  let equal = Int.equal
  let hash = Fun.id
end)

let first_hops links =
  let out = Itbl.create 16 and into = Itbl.create 16 in
  let push tbl k v =
    Itbl.replace tbl k (v :: Option.value (Itbl.find_opt tbl k) ~default:[])
  in
  List.iter
    (fun (l : Event.link) ->
      push out l.Event.src_switch (l.Event.src_port, l.Event.dst_switch);
      push into l.Event.dst_switch l.Event.src_switch)
    links;
  let lower ((p, n) : Types.port_no * Types.switch_id) (p', n') =
    p < p' || (p = p' && n < n')
  in
  fun dst ->
    let dist = Itbl.create 16 in
    Itbl.replace dist dst 0;
    let queue = Queue.create () in
    Queue.push dst queue;
    while not (Queue.is_empty queue) do
      let sid = Queue.pop queue in
      let d = Itbl.find dist sid + 1 in
      List.iter
        (fun prev ->
          if not (Itbl.mem dist prev) then begin
            Itbl.replace dist prev d;
            Queue.push prev queue
          end)
        (Option.value (Itbl.find_opt into sid) ~default:[])
    done;
    let closer d best ((_, next) as hop) =
      match Itbl.find_opt dist next with
      | Some d' when d' = d - 1 -> (
          match best with
          | Some b when not (lower hop b) -> best
          | Some _ | None -> Some hop)
      | Some _ | None -> best
    in
    fun sid ->
      match Itbl.find_opt dist sid with
      | None | Some 0 -> None
      | Some d ->
          List.fold_left (closer d) None
            (Option.value (Itbl.find_opt out sid) ~default:[])
          |> Option.map fst

let flood_out sid (pi : Message.packet_in) =
  Command.packet_out ?buffer_id:pi.Message.pi_buffer_id
    ~in_port:pi.Message.pi_in_port sid
    [ Action.Output Types.port_flood ]
    (match pi.Message.pi_buffer_id with
    | Some _ -> None
    | None -> Some pi.Message.pi_packet)

let handle _ctx (st : state) = function
  | Event.Packet_in (sid, pi) ->
      let src = pi.Message.pi_packet.Packet.dl_src in
      let st' =
        if List.mem src st then st else List.sort compare (src :: st)
      in
      (st', [ flood_out sid pi ])
  | _ -> (st, [])

(* One route bundle per known destination: every switch forwards matching
   traffic out its shortest-path port (the attachment port on the last
   hop). Unknown destinations fall off the compiled table and punt to the
   controller, where [handle] floods them. *)
let policy ctx (st : state) =
  let first_hops = first_hops (App_sig.links ctx) in
  let switches = App_sig.switches ctx in
  let routes =
    List.filter_map
      (fun mac ->
        match App_sig.host_location ctx mac with
        | None -> None
        | Some (dst_sid, dst_port) ->
            let first_hop = first_hops dst_sid in
            let per_switch =
              List.filter_map
                (fun sw ->
                  let out =
                    if sw = dst_sid then Some dst_port else first_hop sw
                  in
                  Option.map
                    (fun port ->
                      Policy.at sw
                        (Policy.seq
                           (Policy.filter (Policy.Test (Policy.Dl_dst mac)))
                           (Policy.forward port)))
                    out)
                switches
            in
            (match per_switch with
            | [] -> None
            | l -> Some (Policy.union_all l)))
      st
  in
  Some (Policy.union_all routes)
