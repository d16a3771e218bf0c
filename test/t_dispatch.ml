module App_sig = Controller.App_sig
(* The dispatch-engine differential: the sharded, batched engine must be
   observationally equivalent to the sequential engine — which stays
   in-tree precisely to serve as the executable specification. Scenarios
   (topology, channel faults, traffic, injected app bugs) come from the
   fuzzer's seed-deterministic generator; equality is demanded on the full
   equivalence surface: oracle verdict, the dispatched event stream, final
   switch flow tables, controller shadow intent, the NetLog transaction
   journal, and the semantic metrics (events, crashes, commits, aborts).

   Plus focused units for the pieces the property leans on: the k-way
   minimum-sequence merge reconstructing arrival order for any shard
   count, and Tick acting as a batch barrier. *)

open Openflow
module Runtime = Legosdn.Runtime
module Dispatch = Legosdn.Dispatch
module Event = Controller.Event
module Runner = Check.Runner
module SGen = Check.Gen

let pkt_in sw src dst =
  Event.Packet_in
    ( sw,
      {
        Message.pi_buffer_id = None;
        pi_in_port = 1;
        pi_reason = Message.No_match;
        pi_packet = Packet.tcp ~src_host:src ~dst_host:dst ~dport:80 ();
      } )

(* ------------------------------------------------------------------ *)
(* Dispatch queue units *)

let drain_all ?(max_batch = 64) q =
  let rec go acc =
    match Dispatch.next_batch q ~max_batch with
    | [] -> List.rev acc
    | batch -> go (batch :: acc)
  in
  go []

let test_merge_restores_arrival_order () =
  List.iter
    (fun shards ->
      let q = Dispatch.create ~shards in
      let events =
        List.init 40 (fun i -> pkt_in ((i mod 5) + 1) (i mod 7) ((i + 1) mod 7))
      in
      List.iter (Dispatch.push q) events;
      T_util.checki "queued" 40 (Dispatch.length q);
      let batches = drain_all ~max_batch:7 q in
      let drained = List.concat_map (List.map snd) batches in
      T_util.checkb
        (Printf.sprintf "shards=%d drains in arrival order" shards)
        true (drained = events);
      List.iter
        (List.iter (fun (s, ev) ->
             T_util.checki "annotated with its shard" (Dispatch.shard_of q ev)
               s))
        batches)
    [ 1; 2; 3; 8; 16 ]

let test_tick_is_a_batch_barrier () =
  let q = Dispatch.create ~shards:4 in
  let e1 = pkt_in 1 0 1 and e2 = pkt_in 2 1 2 and e3 = pkt_in 3 2 3 in
  let tick = Event.Tick 1.0 in
  List.iter (Dispatch.push q) [ e1; e2; tick; e3 ];
  (* The cut happens before the Tick even though max_batch has room. *)
  T_util.checkb "batch 1 stops before the Tick" true
    (List.map snd (Dispatch.next_batch q ~max_batch:64) = [ e1; e2 ]);
  (* A leading Tick is a singleton batch, never grouped. *)
  T_util.checkb "the Tick is a singleton batch" true
    (List.map snd (Dispatch.next_batch q ~max_batch:64) = [ tick ]);
  T_util.checkb "dispatch resumes after the barrier" true
    (List.map snd (Dispatch.next_batch q ~max_batch:64) = [ e3 ]);
  T_util.checkb "drained" true (Dispatch.next_batch q ~max_batch:64 = [])

let test_flow_affinity () =
  (* Packets of one (switch, src, dst) flow always share a shard. *)
  let q = Dispatch.create ~shards:8 in
  List.iter
    (fun (sw, a, b) ->
      T_util.checki "same flow, same shard"
        (Dispatch.shard_of q (pkt_in sw a b))
        (Dispatch.shard_of q (pkt_in sw a b)))
    [ (1, 2, 3); (4, 0, 1); (7, 5, 6) ]

(* ------------------------------------------------------------------ *)
(* The differential property *)

let verdict_of (r : Runner.result) =
  match r.Runner.failure with
  | Some f -> f.Runner.oracle
  | None -> "none"

let explain_divergence spec shards max_batch (a : Runner.result)
    (b : Runner.result) =
  let af = a.Runner.final and bf = b.Runner.final in
  let part name eq = if eq then None else Some name in
  let diffs =
    List.filter_map Fun.id
      [
        part "verdict" (verdict_of a = verdict_of b);
        part "event-trace" (a.Runner.trace = b.Runner.trace);
        part "flow-tables" (af.Runner.tables = bf.Runner.tables);
        part "shadow-intent" (af.Runner.shadows = bf.Runner.shadows);
        part "netlog-journal" (af.Runner.journal = bf.Runner.journal);
        part "metrics"
          ((af.Runner.f_events, af.Runner.f_crashes, af.Runner.f_committed,
            af.Runner.f_aborted)
          = (bf.Runner.f_events, bf.Runner.f_crashes, bf.Runner.f_committed,
             bf.Runner.f_aborted));
      ]
  in
  Printf.sprintf "spec %s, shards=%d batch=%d: %s diverge(s)"
    (Check.Spec.summary spec) shards max_batch (String.concat ", " diffs)

let equivalent (a : Runner.result) (b : Runner.result) =
  verdict_of a = verdict_of b
  && a.Runner.trace = b.Runner.trace
  && a.Runner.final = b.Runner.final

(* Sequential baselines are pure in the seed; cache them so the 200+
   property cases pay one baseline per distinct seed. *)
let baseline_cache : (int, Runner.result) Hashtbl.t = Hashtbl.create 64

let baseline seed =
  match Hashtbl.find_opt baseline_cache seed with
  | Some r -> r
  | None ->
      let r = Runner.run (SGen.scenario seed) in
      Hashtbl.add baseline_cache seed r;
      r

let prop_differential =
  QCheck2.Test.make
    ~name:"sharded/batched dispatch == sequential dispatch" ~count:220
    QCheck2.Gen.(
      triple (int_bound 120) (oneofl [ 1; 2; 3; 8; 16 ])
        (oneofl [ 1; 2; 7; 64 ]))
    (fun (seed, shards, max_batch) ->
      let spec = SGen.scenario seed in
      let a = baseline seed in
      let b =
        Runner.run ~dispatch:(Runtime.Sharded { shards; max_batch }) spec
      in
      if equivalent a b then true
      else
        QCheck2.Test.fail_report
          (explain_divergence spec shards max_batch a b))

(* ------------------------------------------------------------------ *)
(* Runtime-level regressions *)

(* The differential is only meaningful if the scenarios actually
   interleave Ticks with traffic (every Tick cuts a batch); pin that the
   generator gives the property that structure. *)
let test_scenarios_exercise_tick_barriers () =
  let seed = 3 in
  let r =
    Runner.run ~dispatch:(Runtime.Sharded { shards = 8; max_batch = 64 })
      (SGen.scenario seed)
  in
  let ticks, others =
    List.partition (function Event.Tick _ -> true | _ -> false) r.Runner.trace
  in
  T_util.checkb "trace has ticks" true (ticks <> []);
  T_util.checkb "trace has events between ticks" true (others <> [])

(* Direct twin-runtime check, bypassing the Runner: same topology, same
   injected packets, one Tick mid-stream, one after — batched deliveries
   either side of the barrier must leave identical switch state,
   controller intent and transaction journal. *)
let twin dispatch =
  let clock = Netsim.Clock.create () in
  let net =
    Netsim.Net.create clock (Netsim.Topo_gen.linear ~hosts_per_switch:2 3)
  in
  let config = { Runtime.default_config with Runtime.dispatch } in
  let rt =
    Runtime.create ~config net
      [ Controller.App_sig.app (module Apps.Learning_switch) ]
  in
  Option.iter Legosdn.Netlog.keep_journal (Runtime.netlog rt);
  Runtime.step rt;
  let hosts = Netsim.Topology.hosts (Netsim.Net.topology net) in
  let inject i =
    let n = List.length hosts in
    let src = List.nth hosts (i mod n) in
    let dst = List.nth hosts ((i + 1 + (i mod (n - 1))) mod n) in
    if src <> dst then
      Netsim.Net.inject net src (Packet.tcp ~src_host:src ~dst_host:dst ())
  in
  for i = 0 to 5 do
    inject i
  done;
  Runtime.step rt;
  Netsim.Clock.advance_by clock 0.5;
  Runtime.tick rt;
  for i = 6 to 11 do
    inject i
  done;
  Runtime.step rt;
  Netsim.Clock.advance_by clock 0.5;
  Runtime.tick rt;
  Runtime.step rt;
  let tables =
    Netsim.Topology.switches (Netsim.Net.topology net)
    |> List.sort compare
    |> List.map (fun sid ->
           Netsim.Flow_table.entries (Netsim.Net.switch net sid).Netsim.Sw.table)
  in
  let shadows =
    match Runtime.reliable rt with
    | Some rel -> Legosdn.Reliable.export_shadows rel
    | None -> []
  in
  let journal =
    match Runtime.netlog rt with
    | Some nl -> Legosdn.Netlog.journal nl
    | None -> []
  in
  (tables, shadows, journal, Runtime.events_processed rt)

let test_twin_runtimes_agree_across_tick_barrier () =
  let seq = twin Runtime.Sequential in
  (let _, _, journal, _ = seq in
   T_util.checkb "the compared journal is not empty" true (journal <> []));
  List.iter
    (fun (shards, max_batch) ->
      let sh = twin (Runtime.Sharded { shards; max_batch }) in
      T_util.checkb
        (Printf.sprintf "twin state equal at shards=%d batch=%d" shards
           max_batch)
        true (seq = sh))
    [ (1, 1); (3, 2); (8, 64) ]

let suite =
  [
    Alcotest.test_case "merge restores arrival order" `Quick
      test_merge_restores_arrival_order;
    Alcotest.test_case "tick is a batch barrier" `Quick
      test_tick_is_a_batch_barrier;
    Alcotest.test_case "flow affinity is deterministic" `Quick
      test_flow_affinity;
    QCheck_alcotest.to_alcotest prop_differential;
    Alcotest.test_case "scenarios exercise tick barriers" `Quick
      test_scenarios_exercise_tick_barriers;
    Alcotest.test_case "twin runtimes agree across tick barrier" `Quick
      test_twin_runtimes_agree_across_tick_barrier;
  ]
