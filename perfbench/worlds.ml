(* The four workloads: what each world runs, the seeded trace it replays,
   how it is built, and one closed-loop pass over the trace.

   The load is a closed loop from one thread: each trace packet is
   injected and the runtime is stepped to quiescence before the next
   packet goes in. The simulator runs on virtual time, so the trace's
   timestamps only move the virtual clock; wall time is spent only on the
   work each packet causes. Every pass builds a fresh world and replays
   the same trace, so every pass does the same work. *)

open Netsim
module Runtime = Legosdn.Runtime
module Metrics = Legosdn.Metrics
module App_sig = Controller.App_sig
module Packet = Openflow.Packet

(* Monotonic wall clock, seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type workload = Flowsetup_k4 | Arpdir_k16 | Faults_k4 | Intent_k4

let all =
  [
    ("flowsetup-k4", Flowsetup_k4);
    ("arpdir-k16", Arpdir_k16);
    ("faults-k4", Faults_k4);
    ("intent-k4", Intent_k4);
  ]

let of_name s = List.assoc_opt s all
let name w = fst (List.find (fun (_, w') -> w' = w) all)
let fat_k = function Arpdir_k16 -> 16 | Flowsetup_k4 | Faults_k4 | Intent_k4 -> 4

(* Every workload runs the whole stack: sharded dispatch, adaptive delta
   checkpoints, a bounded trace cache, reliable delivery and intent
   reconcile (the last two are on by default). *)
let config =
  {
    Runtime.default_config with
    Runtime.dispatch = Runtime.default_sharded;
    checkpoint_mode = Runtime.Ckpt_delta_adaptive;
    trace_cache_budget = Some (256 * 1024);
  }

(* The transport port whose packets crash [faults-k4]'s router. *)
let poison_port = 6666

let apps w : App_sig.app list =
  let stp = App_sig.app (module Apps.Spanning_tree) in
  let arp = App_sig.app (module Apps.Arp_responder) in
  let router = App_sig.app (module Apps.Router) in
  let firewall = App_sig.app (module Apps.Firewall) in
  let monitor = App_sig.app (module Apps.Monitor) in
  match w with
  | Flowsetup_k4 -> [ stp; arp; router; firewall; monitor ]
  | Faults_k4 ->
      (* A data-dependent trigger: whether a packet crashes the router
         depends only on the packet, never on process-global state, so
         every pass crashes on the same packets. *)
      let bug =
        Apps.Bug_model.make
          (Apps.Bug_model.On_tp_dst poison_port)
          (Apps.Bug_model.Crash_partial 0.5)
      in
      [ stp; arp; Apps.Faulty.wrap ~bug router; firewall; monitor ]
  | Intent_k4 -> [ stp; arp; App_sig.intent (module Apps.Policy_router) ]
  | Arpdir_k16 -> [ arp ]

(* Whether the workload's apps are meant to crash. *)
let injects_crashes = function
  | Faults_k4 -> true
  | Flowsetup_k4 | Arpdir_k16 | Intent_k4 -> false

(* Whether every injected packet must reach its addressed host: true
   unless the workload injects failures. On [intent-k4] the policy router
   listens only to packet-ins, so a route over a link that just went down
   keeps dropping packets until the next punt triggers a reconcile. *)
let expects_full_delivery = function
  | Faults_k4 | Intent_k4 -> false
  | Flowsetup_k4 | Arpdir_k16 -> true

(* {1 Traces} *)

type input = { at : float; src : Topology.host; packet : Packet.t }

type trace = {
  inputs : input array;  (* time-ordered *)
  faults : (float * Net.fault) array;  (* time-ordered *)
  horizon : float;  (* virtual seconds a pass runs for *)
}

let load ~seed ~rate =
  {
    Runtime.default_workload_config with
    Runtime.w_seed = seed;
    Runtime.w_rate = rate;
  }

(* Exactly [n] inputs spread over [0, horizon): the first [n] arrivals of
   a longer generated stream, with time scaled so that the next arrival
   would land at the horizon. Every seed then replays the same number of
   packets over the same virtual span; only their order, pairs and
   bursts differ. [generate d] yields the stream over [d] virtual
   seconds; the span doubles until it holds [n + 1] arrivals. *)
let first_n ~n ~horizon ~rate generate =
  let rec grow duration =
    let a = Array.of_list (generate duration) in
    if Array.length a > n then a else grow (2. *. duration)
  in
  let a = grow (2. *. float_of_int n /. rate) in
  let scale = horizon /. Float.max a.(n).at 1e-9 in
  Array.to_list (Array.map (fun i -> { i with at = i.at *. scale }) (Array.sub a 0 n))

let tcp_inputs ~horizon ~seed ~rate ~n ?dport hosts =
  first_n ~n ~horizon ~rate (fun duration ->
      Workload.Trace_gen.injections ~config:(load ~seed ~rate) ~hosts ~duration
        ?dport ()
      |> List.map (fun (i : Workload.Traffic.injection) ->
             { at = i.at; src = i.src; packet = i.packet }))

(* One ARP request per generated flow, at the flow's start: a host
   resolves its peer once before talking to it. *)
let arp_inputs ~horizon ~seed ~rate ~n hosts =
  first_n ~n ~horizon ~rate (fun duration ->
      Workload.Trace_gen.flows ~config:(load ~seed ~rate) ~hosts ~duration ()
      |> List.map (fun (f : Workload.Traffic.flow_spec) ->
             {
               at = f.start;
               src = f.src_host;
               packet =
                 Packet.arp_request ~src_host:f.src_host ~dst_host:f.dst_host;
             }))

let link_flaps ~horizon ~seed topo =
  Workload.Failure_schedule.periodic_link_flaps topo ~seed ~period:5.
    ~downtime:2. ~duration:horizon
  |> Workload.Failure_schedule.sorted

(* How many packets each trace holds, per 30 virtual seconds. On
   [intent-k4] each ARP request costs ~0.1 s (a punt and a reconcile at
   every switch it floods to), so it gets few: a short pass lets each of
   its steps be timed many times in a run. *)
let tcp_packets = 600
let poison_packets = 60
let intent_arps = 25
let arp_requests = 4000

(* How many packets of a trace must reach the controller, so that the
   latency percentiles rest on enough samples: 100, so that p90 has ten
   above it, except on [intent-k4], where every ARP request must. *)
let min_reacted = function
  | Intent_k4 -> intent_arps
  | Flowsetup_k4 | Arpdir_k16 | Faults_k4 -> 100

(* Virtual seconds of a workload's trace. What a [faults-k4] packet costs
   depends on the flows and link flaps its seed draws: over 30 virtual
   seconds, invariant screening took a fifth longer for one seed than for
   another. Its trace spans three times as long, so that its cost per
   packet varies less from seed to seed. *)
let default_horizon = function
  | Faults_k4 -> 90.
  | Flowsetup_k4 | Arpdir_k16 | Intent_k4 -> 30.

(* The trace a workload replays: a pure function of (workload, seed,
   horizon). Packet counts scale with the horizon. *)
let trace ?horizon w ~seed =
  let horizon = Option.value horizon ~default:(default_horizon w) in
  let topo = Topo_gen.fat_tree (fat_k w) in
  let hosts = Topology.hosts topo in
  let n count = max 1 (int_of_float (float_of_int count *. horizon /. 30.)) in
  let merge streams =
    List.stable_sort (fun a b -> Float.compare a.at b.at) (List.concat streams)
  in
  let tcp ?dport ~seed count =
    tcp_inputs ~horizon ~seed ~rate:20. ~n:(n count) ?dport hosts
  in
  let inputs, faults =
    match w with
    | Flowsetup_k4 -> (tcp ~seed tcp_packets, [])
    | Faults_k4 ->
        ( merge
            [
              tcp ~seed tcp_packets;
              tcp ~seed:(seed + 1_000_003) ~dport:poison_port poison_packets;
            ],
          link_flaps ~horizon ~seed topo )
    | Intent_k4 ->
        ( merge
            [
              tcp ~seed tcp_packets;
              arp_inputs ~horizon ~seed:(seed + 1_000_003) ~rate:20.
                ~n:(n intent_arps) hosts;
            ],
          link_flaps ~horizon ~seed topo )
    | Arpdir_k16 ->
        (arp_inputs ~horizon ~seed ~rate:200. ~n:(n arp_requests) hosts, [])
  in
  { inputs = Array.of_list inputs; faults = Array.of_list faults; horizon }

(* The part of a trace before [fraction] of its horizon. *)
let prefix t ~fraction =
  let horizon = t.horizon *. fraction in
  let before at a = Array.of_seq (Seq.filter (fun x -> at x < horizon) (Array.to_seq a)) in
  { inputs = before (fun i -> i.at) t.inputs; faults = before fst t.faults; horizon }

(* {1 Worlds} *)

type world = {
  clock : Clock.t;
  net : Net.t;
  rt : Runtime.t;
  setup_steps_s : float array;
      (* the build cut into steps: creating the network and runtime with
         the handshake, then each host's announcement *)
}

(* A gratuitous ARP reply: announces a host's binding and location
   without asking anything. *)
let gratuitous h =
  Packet.make ~dl_type:Packet.ethertype_arp ~nw_proto:2
    ~dl_src:(Openflow.Types.mac_of_host h)
    ~dl_dst:Openflow.Types.mac_broadcast ~nw_src:(Openflow.Types.ip_of_host h)
    ~nw_dst:(Openflow.Types.ip_of_host h) ~tp_src:0 ~tp_dst:0 ~payload_len:28
    ()

(* Build the topology and runtime, complete the switch handshake, then
   run the pre-phase: every host announces itself with a gratuitous ARP,
   so the device manager and the ARP responder know every binding. *)
let build w =
  let t_prev = ref (now ()) in
  let lap () =
    let t = now () in
    let d = t -. !t_prev in
    t_prev := t;
    d
  in
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.fat_tree (fat_k w)) in
  let rt = Runtime.create ~config net (apps w) in
  Runtime.step rt;
  let handshake = lap () in
  let announce h =
    Net.inject net h (gratuitous h);
    Runtime.step rt;
    lap ()
  in
  let announced = List.map announce (Topology.hosts (Net.topology net)) in
  { clock; net; rt; setup_steps_s = Array.of_list (handshake :: announced) }

(* {1 Counters} *)

(* Cumulative counts read from public getters; a pass reports the
   difference across its replay. *)
let counters { net; rt; _ } =
  let m = Runtime.metrics rt in
  let st = Net.stats net in
  let nl f = match Runtime.netlog rt with Some n -> f n | None -> 0 in
  let rel f = match Runtime.reliable rt with Some r -> f r | None -> 0 in
  [
    ("events", Runtime.events_processed rt);
    ("events_shed", Runtime.events_shed rt);
    ("packet_ins", st.Net.packet_ins);
    ("blackholed", st.Net.blackholed);
    ("committed", nl Legosdn.Netlog.committed);
    ("aborted", nl Legosdn.Netlog.aborted);
    ("ops_rolled_back", nl Legosdn.Netlog.ops_rolled_back);
    ("acks", rel Legosdn.Reliable.acks);
    ("retransmits", rel Legosdn.Reliable.retransmits);
    ("resyncs", rel Legosdn.Reliable.resyncs);
    ("ckpt_bytes", Metrics.ckpt_bytes_written m);
    ("crashes", Metrics.crashes m);
    ("tickets", Legosdn.Ticket.count (Runtime.ticket_store rt));
    ("transformed", Metrics.transformed m);
    ("reconciles", Metrics.policy_reconciles m);
    ("compromises", Metrics.policy_compromises m);
    ("rejected", Metrics.policy_rejected m);
    ("inv_hits", Metrics.inv_trace_hits m);
    ("inv_misses", Metrics.inv_trace_misses m);
    ("evictions", Metrics.inv_evictions m);
    ( "rpc_bytes",
      List.fold_left
        (fun acc b -> acc + Legosdn.Sandbox.rpc_bytes b)
        0 (Runtime.sandboxes rt) );
  ]

let diff after before =
  List.map2 (fun (k, a) (_, b) -> (k, a - b)) after before

(* {1 Tracing} *)

(* A traced pass drains the runtime's tracer after every call the
   benchmark times and charges the spans to the ledger. *)
type probe = {
  tracer : Obs.Tracer.t;
  ledger : Ledger.t;
  mutable calls_s : float;  (* wall time inside timed calls *)
  mutable step_s : float;  (* wall time inside [Runtime.step] *)
  mutable problems : string list;
}

(* Large enough that no single call of these workloads wraps it. *)
let ring_capacity = 4096

let attach world =
  let tracer =
    Obs.Tracer.create ~capacity:ring_capacity ~wall:now
      ~now:(fun () -> Clock.now world.clock)
      ()
  in
  Runtime.set_tracer world.rt tracer;
  { tracer; ledger = Ledger.create (); calls_s = 0.; step_s = 0.; problems = [] }

let drain p ~row ~dur =
  p.calls_s <- p.calls_s +. dur;
  if Obs.Tracer.open_count p.tracer <> 0 then
    p.problems <- (row ^ ": spans left open") :: p.problems;
  if Obs.Tracer.dropped p.tracer <> 0 then
    p.problems <- (row ^ ": tracer ring overflowed") :: p.problems;
  let spans =
    if Obs.Tracer.recorded p.tracer = 0 then []
    else begin
      let s = Obs.Tracer.spans p.tracer in
      Obs.Tracer.clear p.tracer;
      s
    end
  in
  Ledger.account p.ledger ~row ~dur spans

(* {1 A pass} *)

type pass = {
  wall_s : float;  (* the whole replay *)
  steps_s : float array;
      (* the replay cut at every packet: [2i] is the catch-up before
         packet [i], [2i + 1] its inject-to-quiescence, the last entry
         the catch-up after the last packet *)
  reacted : int list;  (* ascending: packets that reached the controller *)
  injected : int;
  delivered : int;  (* packets that reached their addressed host *)
  dup_deliveries : int;  (* copies beyond the first *)
  punted : int;  (* packets that caused at least one packet-in *)
  counts : (string * int) list;  (* counter deltas over the replay *)
  alloc_words : float;
  major_collections : int;
}

(* The work a pass did. Every pass of a run must report the same one. *)
let fingerprint p =
  let c k = List.assoc k p.counts in
  [
    ("injected", p.injected);
    ("events", c "events");
    ("committed", c "committed");
    ("crashes", c "crashes");
    ("tickets", c "tickets");
    ("delivered", p.delivered);
    ("dup_deliveries", p.dup_deliveries);
  ]

(* Inject-to-quiescence times of the packets that reached the controller,
   read from [steps] (a pass's [steps_s], or per-step figures over many
   passes). *)
let react_s p steps = List.map (fun i -> steps.((2 * i) + 1)) p.reacted

(* Count a packet as delivered at most once. [delivered_to_dst] can rise
   by more than one over a packet's step: recovery may replay a
   packet-out, and on [intent-k4] every switch a broadcast ARP reaches
   answers it. The extra copies are reported separately. *)
let credit ~before ~after =
  let d = after - before in
  (min 1 d, max 0 (d - 1))

let replay ?probe world trace =
  let { clock; net; rt; _ } = world in
  let stats = Net.stats net in
  let call row f =
    let t0 = now () in
    f ();
    let dur = now () -. t0 in
    match probe with
    | None -> ()
    | Some p ->
        if row = "runtime.poll_s" then p.step_s <- p.step_s +. dur;
        drain p ~row ~dur
  in
  let step () = call "runtime.poll_s" (fun () -> Runtime.step rt) in
  let advance t = if t > Clock.now clock then Clock.advance_to clock t in
  let next_tick = ref 1. in
  let next_fault = ref 0 in
  let nfaults = Array.length trace.faults in
  (* Everything scheduled at or before [t]: faults and the once-a-second
     ticks, in time order. *)
  let rec catch_up t =
    let fault_at =
      if !next_fault < nfaults then fst trace.faults.(!next_fault)
      else infinity
    in
    if fault_at <= t && fault_at < !next_tick then begin
      advance fault_at;
      let f = snd trace.faults.(!next_fault) in
      incr next_fault;
      call "netsim.fault_s" (fun () -> Net.apply_fault net f);
      step ();
      catch_up t
    end
    else if !next_tick <= t then begin
      advance !next_tick;
      next_tick := !next_tick +. 1.;
      call "netsim.tick_s" (fun () -> Net.tick net);
      call "runtime.tick_s" (fun () -> Runtime.tick rt);
      step ();
      catch_up t
    end
  in
  let before = counters world in
  let gc0 = Gc.quick_stat () in
  let n = Array.length trace.inputs in
  let steps_s = Array.make ((2 * n) + 1) 0. in
  let reacted = ref [] in
  let delivered = ref 0 and dups = ref 0 and punted = ref 0 in
  let t_start = now () in
  let t_prev = ref t_start in
  Array.iteri
    (fun i inp ->
      catch_up inp.at;
      advance inp.at;
      let d0 = stats.Net.delivered_to_dst in
      let p0 = stats.Net.packet_ins in
      let e0 = Runtime.events_processed rt in
      let t0 = now () in
      call "netsim.inject_s" (fun () -> Net.inject net inp.src inp.packet);
      step ();
      let t1 = now () in
      steps_s.(2 * i) <- t0 -. !t_prev;
      steps_s.((2 * i) + 1) <- t1 -. t0;
      t_prev := t1;
      let got, extra = credit ~before:d0 ~after:stats.Net.delivered_to_dst in
      delivered := !delivered + got;
      dups := !dups + extra;
      if stats.Net.packet_ins > p0 then incr punted;
      if Runtime.events_processed rt > e0 then reacted := i :: !reacted)
    trace.inputs;
  catch_up trace.horizon;
  let t_end = now () in
  steps_s.(2 * n) <- t_end -. !t_prev;
  let wall_s = t_end -. t_start in
  let gc1 = Gc.quick_stat () in
  let words (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words in
  {
    wall_s;
    steps_s;
    reacted = List.rev !reacted;
    injected = Array.length trace.inputs;
    delivered = !delivered;
    dup_deliveries = !dups;
    punted = !punted;
    counts = diff (counters world) before;
    alloc_words = words gc1 -. words gc0;
    major_collections = gc1.major_collections - gc0.major_collections;
  }

(* The share of a traced pass, in percent, that no ledger row holds. *)
let unattributed_pct pass probe =
  100. *. (probe.calls_s -. Ledger.attributed probe.ledger) /. pass.wall_s
