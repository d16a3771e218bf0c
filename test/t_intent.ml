(* Intent reconciliation and policy-derived Equivalence compromises:
   the runtime keeps hardware synchronized with each app's declared
   policy, refuses intents whose compiled tables would violate safety
   invariants, and — when an app crashes — Crash-Pad recompiles the
   declared intent into a verified rule-set instead of guessing. *)

open Netsim
module App_sig = Controller.App_sig
module Event = Controller.Event
module Runtime = Legosdn.Runtime
module Sandbox = Legosdn.Sandbox
module Metrics = Legosdn.Metrics
module Spec = Check.Spec
module Runner = Check.Runner

let table_size net sid = Flow_table.size (Net.switch net sid).Sw.table

(* ---------------- reconciliation ---------------- *)

(* A healthy policy_firewall never emits a command, yet after its first
   delivery the switches are programmed from its compiled intent: telnet
   dies in hardware, everything else floods in hardware. *)
let test_reconcile_programs_switches () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 2) in
  let rt =
    Runtime.create net [ App_sig.intent (module Apps.Policy_firewall) ]
  in
  Runtime.step rt;
  let m = Runtime.metrics rt in
  T_util.checkb "intent reconciled at least once" true
    (Metrics.policy_reconciles m >= 1);
  T_util.checkb "rules installed on switch 1" true (table_size net 1 > 0);
  T_util.checkb "rules installed on switch 2" true (table_size net 2 > 0);
  (match Runtime.sandboxes rt with
  | [ box ] ->
      T_util.checkb "sandbox tracks installed intent" true
        (Sandbox.intent_tables box <> [])
  | _ -> Alcotest.fail "expected exactly one sandbox");
  let compiles = Metrics.counter m "policy_compiles" in
  let hits = Metrics.counter m "policy_compile_hits" in
  let compiles_before = Metrics.value compiles in
  T_util.checkb "first reconcile compiled" true (compiles_before >= 1);
  (* Telnet is dropped by the compiled tables... *)
  let delivered_before = (Net.stats net).Net.delivered in
  Clock.advance_by clock 0.05;
  Net.inject net 1 (Openflow.Packet.tcp ~src_host:1 ~dst_host:2 ~dport:23 ());
  Runtime.step rt;
  T_util.checki "telnet blocked in hardware" delivered_before
    (Net.stats net).Net.delivered;
  (* ...while web traffic floods through without ever punting. *)
  let events_before = Metrics.events m in
  Clock.advance_by clock 0.05;
  Net.inject net 1 (Openflow.Packet.tcp ~src_host:1 ~dst_host:2 ~dport:80 ());
  Runtime.step rt;
  T_util.checkb "http delivered" true
    ((Net.stats net).Net.delivered > delivered_before);
  T_util.checki "no punt: table covered the packet" events_before
    (Metrics.events m);
  (* The telnet punt reconciled an unchanged intent: the memo answered. *)
  T_util.checkb "unchanged intent reused its compiled tables" true
    (Metrics.value hits > 0);
  T_util.checki "no recompile for an unchanged intent" compiles_before
    (Metrics.value compiles)

(* ---------------- compile memo ---------------- *)

(* Over random (switches, policy) sequences with repeats, the memoized
   compile returns what a fresh compile returns, hands back the very same
   tables when the key repeats the last successful one, and never lets an
   uncompilable policy into the memo. *)
let gen_memo_case =
  QCheck.Gen.(
    let* pols = list_size (int_range 1 3) (T_policy.gen_policy 2) in
    let* sws =
      oneofl [ [ [ 1; 2 ] ]; [ [ 1; 2 ]; [ 1 ] ]; [ [ 1; 2 ]; [ 2; 1 ] ] ]
    in
    let* steps =
      list_size (int_range 2 10)
        (pair (int_bound (List.length sws - 1))
           (int_bound (List.length pols - 1)))
    in
    (* Fresh structural copies, so a repeated key is never a shared
       pointer the memo could cheat with. *)
    let copy x = Marshal.from_string (Marshal.to_string x []) 0 in
    return
      (List.map
         (fun (i, j) -> (copy (List.nth sws i), copy (List.nth pols j)))
         steps))

let memo_prop steps =
  let box =
    Sandbox.create ~checkpoint_every:1 (App_sig.app (module Apps.Hub))
  in
  let compile ~switches pol =
    match Policy.compile ~switches pol with
    | t -> Some t
    | exception Policy.Uncompilable _ -> None
  in
  let last = ref None in
  List.for_all
    (fun (switches, pol) ->
      let fresh = compile ~switches pol in
      match (Sandbox.compile_intent box ~switches pol, fresh) with
      | exception Policy.Uncompilable _ -> fresh = None
      | (outcome, tables), Some fresh ->
          let repeated, reused =
            match !last with
            | Some (sw, p, prev) when sw = switches && p = pol ->
                (true, prev == tables)
            | Some _ | None -> (false, false)
          in
          last := Some (switches, pol, tables);
          tables = fresh
          && repeated = (outcome = `Hit)
          && repeated = reused
      | _, None -> false)
    steps

let test_memo_matches_fresh_compile =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"memoized compile == fresh compile"
       (QCheck.make gen_memo_case) memo_prop)

(* ---------------- per-destination first hops ---------------- *)

(* The per-pair BFS the policy router used before routing with one BFS
   per destination, kept verbatim as the reference. *)
let first_hop links src dst =
  let adjacency = Hashtbl.create 16 in
  List.iter
    (fun (l : Event.link) ->
      let existing =
        Option.value (Hashtbl.find_opt adjacency l.Event.src_switch) ~default:[]
      in
      Hashtbl.replace adjacency l.Event.src_switch
        ((l.Event.src_port, l.Event.dst_switch) :: existing))
    links;
  let neighbors sid =
    Option.value (Hashtbl.find_opt adjacency sid) ~default:[]
    |> List.sort compare
  in
  let visited = Hashtbl.create 16 in
  Hashtbl.replace visited src ();
  let queue = Queue.create () in
  List.iter
    (fun (port, next) ->
      if not (Hashtbl.mem visited next) then begin
        Hashtbl.replace visited next ();
        Queue.push (next, port) queue
      end)
    (neighbors src);
  let result = ref None in
  while !result = None && not (Queue.is_empty queue) do
    let sid, port = Queue.pop queue in
    if sid = dst then result := Some port
    else
      List.iter
        (fun (_, next) ->
          if not (Hashtbl.mem visited next) then begin
            Hashtbl.replace visited next ();
            Queue.push (next, port) queue
          end)
        (neighbors sid)
  done;
  !result

(* Both directions of every switch-to-switch link of [topo]. *)
let directed_links topo =
  List.concat_map
    (fun (l : Topology.link) ->
      match (l.Topology.a, l.Topology.b) with
      | ( { Topology.node = Topology.Switch s1; port = p1 },
          { Topology.node = Topology.Switch s2; port = p2 } ) ->
          let link s p s' p' =
            { Event.src_switch = s; src_port = p; dst_switch = s'; dst_port = p' }
          in
          [ link s1 p1 s2 p2; link s2 p2 s1 p1 ]
      | _ -> [])
    (Topology.links topo)

(* A generated topology's links with some directed links down, some
   parallel links added on fresh ports (in one or both directions), in
   shuffled order, plus a destination switch. *)
let gen_hop_case =
  QCheck.Gen.(
    let* topo =
      oneof
        [
          map (fun n -> Topo_gen.linear (1 + n)) (int_bound 7);
          map (fun n -> Topo_gen.mesh (2 + n)) (int_bound 4);
          map (fun k -> Topo_gen.fat_tree (2 * (1 + k))) (int_bound 1);
        ]
    in
    let links = directed_links topo in
    let* kept =
      flatten_l
        (List.map
           (fun l -> map (fun roll -> if roll < 2 then [] else [ l ]) (int_bound 9))
           links)
    in
    let* parallel =
      flatten_l
        (List.mapi
           (fun i (l : Event.link) ->
             let p = 50 + i in
             let twin = { l with Event.src_port = p; dst_port = p } in
             let back =
               {
                 Event.src_switch = l.Event.dst_switch;
                 src_port = p;
                 dst_switch = l.Event.src_switch;
                 dst_port = p;
               }
             in
             map2
               (fun roll both ->
                 if roll >= 2 then [] else if both then [ twin; back ] else [ twin ])
               (int_bound 9) bool)
           links)
    in
    let* shuffled = shuffle_l (List.concat kept @ List.concat parallel) in
    let switches = Topology.switches topo in
    let* dst = oneofl switches in
    return (switches, shuffled, dst))

let hop_prop (switches, links, dst) =
  let hop = Apps.Policy_router.first_hops links dst in
  List.for_all
    (fun sw ->
      let want = first_hop links sw dst and got = hop sw in
      want = got
      || QCheck.Test.fail_reportf
           "switch %d -> %d: per-pair %s, per-destination %s" sw dst
           (match want with Some p -> string_of_int p | None -> "none")
           (match got with Some p -> string_of_int p | None -> "none"))
    switches

let test_first_hops_match_per_pair_bfs =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"per-destination first hops == per-pair BFS"
       (QCheck.make gen_hop_case) hop_prop)

(* ---------------- rejection ---------------- *)

(* An intent that compiles to a forwarding loop: every switch blasts all
   traffic out its first inter-switch port. The compiler is happy, the
   differential check agrees — and the invariant engine refuses to let a
   single rule reach the network. *)
module Loopy = struct
  type state = int

  let name = "loopy"
  let subscriptions = [ Event.K_switch_up ]
  let init () = 0
  let handle _ctx st _ev = (st + 1, [])

  let policy ctx _st =
    match App_sig.links ctx with
    | [] -> None
    | links ->
        Some
          (Policy.union_all
             (List.map
                (fun (l : Event.link) ->
                  Policy.at l.Event.src_switch
                    (Policy.forward l.Event.src_port))
                links))
end

let test_looping_intent_rejected () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 2) in
  let rt = Runtime.create net [ App_sig.intent (module Loopy) ] in
  Runtime.step rt;
  let m = Runtime.metrics rt in
  T_util.checkb "looping intent rejected" true (Metrics.policy_rejected m >= 1);
  T_util.checki "no reconcile recorded" 0 (Metrics.policy_reconciles m);
  T_util.checki "switch 1 table untouched" 0 (table_size net 1);
  T_util.checki "switch 2 table untouched" 0 (table_size net 2);
  match Runtime.sandboxes rt with
  | [ box ] ->
      T_util.checkb "no intent recorded as installed" true
        (Sandbox.intent_tables box = [])
  | _ -> Alcotest.fail "expected exactly one sandbox"

(* A policy with no OF 1.0 serialization (a multicast whose copies need
   divergent rewrites of unpinned fields) is rejected on every reconcile:
   nothing is memoized, so the second attempt compiles and fails again. *)
module Divergent = struct
  type state = int

  let name = "divergent"
  let subscriptions = [ Event.K_switch_up ]
  let init () = 0
  let handle _ctx st _ev = (st + 1, [])

  let policy _ctx _st =
    Some
      Policy.(
        union
          (seq (modify (To_nw_tos 46)) (forward 1))
          (seq (modify (To_dl_src (Openflow.Types.mac_of_host 2))) (forward 2)))
end

let test_uncompilable_rejected_twice () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.linear ~hosts_per_switch:1 2) in
  let rt = Runtime.create net [ App_sig.intent (module Divergent) ] in
  Runtime.step rt;
  let m = Runtime.metrics rt in
  T_util.checki "two switch-ups, two rejections" 2 (Metrics.policy_rejected m);
  T_util.checki "each rejection compiled afresh" 2
    (Metrics.value (Metrics.counter m "policy_compiles"));
  T_util.checki "nothing served from the memo" 0
    (Metrics.value (Metrics.counter m "policy_compile_hits"));
  T_util.checki "switch 1 table untouched" 0 (table_size net 1)

(* ---------------- policy-derived compromise ---------------- *)

(* policy_router on a full mesh with a poison-packet bug. Hosts 1-3 get
   learned and routed; then a link dies *silently* (the app only watches
   packet-ins), and the very packet that punts to tell the app about the
   stale tables crashes it — deterministically, on every retry. Crash-Pad's
   Equivalence compromise recompiles the declared intent against the
   post-failure topology and installs the verified diff: traffic keeps
   flowing across a path the crashed app never computed. *)
let test_compromise_reroutes_after_crash () =
  let clock = Clock.create () in
  let net = Net.create clock (Topo_gen.mesh ~hosts_per_switch:1 4) in
  let bug =
    Apps.Bug_model.make (Apps.Bug_model.On_tp_dst 7) Apps.Bug_model.Crash
  in
  let app =
    Apps.Faulty.wrap ~bug (App_sig.intent (module Apps.Policy_router))
  in
  let rt = Runtime.create net [ app ] in
  Runtime.step rt;
  (* Hosts 1-3 each send towards the never-speaking host 4: every packet
     punts, so their MACs get learned and routed. *)
  for h = 1 to 3 do
    Clock.advance_by clock 0.05;
    Net.inject net h (Openflow.Packet.tcp ~src_host:h ~dst_host:4 ());
    Runtime.step rt
  done;
  let m = Runtime.metrics rt in
  T_util.checkb "routes installed before the failure" true
    (Metrics.policy_reconciles m >= 1);
  T_util.checki "no compromise yet" 0 (Metrics.policy_compromises m);
  T_util.checki "no crash yet" 0 (Metrics.crashes m);
  (* Cut the 1<->2 link. The app subscribes to no topology event, so the
     routes through it simply went stale. *)
  Net.apply_fault net (Net.Link_down (Topology.Switch 1, Topology.Switch 2));
  Runtime.step rt;
  (* The next punt carries the poison port: delivery crashes, retries
     crash, and the compromise recompiles the declared intent against the
     live links instead. *)
  Clock.advance_by clock 0.05;
  Net.inject net 1 (Openflow.Packet.tcp ~src_host:1 ~dst_host:4 ~dport:7 ());
  Runtime.step rt;
  T_util.checkb "crash absorbed" true (Metrics.crashes m >= 1);
  T_util.checkb "compromise derived from compiled policy" true
    (Metrics.policy_compromises m >= 1);
  List.iter
    (fun box -> T_util.checkb "app still alive" true (Sandbox.alive box))
    (Runtime.sandboxes rt);
  (* The recompiled routes steer around the dead link in hardware. *)
  Clock.advance_by clock 0.05;
  Net.inject net 1 (Openflow.Packet.tcp ~src_host:1 ~dst_host:2 ());
  Runtime.step rt;
  T_util.checkb "traffic rerouted around the dead link" true
    (Net.reachable net 1 2)

(* ---------------- end-to-end fuzzer scenario ---------------- *)

(* The same story through the fuzz harness: a hand-authored spec running
   policy_router with corpus bug #0 — "NullPointerException parsing
   packet-in with truncated payload", which crashes on any packet with
   tp_dst 0. Routes get learned, the middle switch of a linear topology
   reboots (silently, for a packet-in-only app), and then a dport-0
   packet punts: the delivery crashes on every retry, and Crash-Pad's
   only way out is recompiling the declared intent against the shrunken
   topology. The runner must finish with no oracle finding and at least
   one policy-derived compromise in its final state. *)
let test_fuzzer_scenario_derives_compromise () =
  let spec =
    {
      Spec.seed = 0;
      topo = Spec.Linear 3;
      apps = [ "policy_router" ];
      base_loss = 0.0;
      duplicate = 0.0;
      delay = 0.0;
      reliable = true;
      base_timeout = 0.05;
      max_retries = 6;
      checkpoint_every = 1;
      policy = Legosdn.Recovery_policy.Equivalence;
      duration = 8.0;
      replicas = 1;
      election_lo = 0.15;
      election_hi = 0.3;
      nversion = 1;
      elements =
        [
          (* Learn host 1 end-to-end before the failure. *)
          Spec.Flow { src = 0; dst = 2; start = 1.0; packets = 2; dport = 80 };
          Spec.Flow { src = 2; dst = 0; start = 1.5; packets = 2; dport = 80 };
          (* Reboot the middle switch; its routes are now stale. *)
          Spec.Switch_reboot { sw = 1; down_at = 4.0; downtime = 1.5 };
          (* A dport-0 punt while the switch is down crashes the app
             (corpus bug 0): the compromise withdraws the routes through
             the dead switch from declared intent. *)
          Spec.Flow { src = 0; dst = 2; start = 4.5; packets = 1; dport = 0 };
          Spec.Inject_bug { slot = 0; bug = 0 };
          (* Traffic after the switch returns re-drives reconciliation. *)
          Spec.Flow { src = 0; dst = 2; start = 6.5; packets = 2; dport = 80 };
        ];
    }
  in
  let r = Runner.run spec in
  (match r.Runner.failure with
  | None -> ()
  | Some f ->
      Alcotest.failf "unexpected oracle finding: %s: %s" f.Runner.oracle
        f.Runner.detail);
  T_util.checkb "run survived its oracles" true (r.Runner.failure = None);
  T_util.checkb "crash observed" true (r.Runner.final.Runner.f_crashes >= 1);
  T_util.checkb "fuzzer scenario derived a verified compromise" true
    (r.Runner.final.Runner.f_policy_compromises >= 1)

let suite =
  [
    Alcotest.test_case "reconcile programs switches" `Quick
      test_reconcile_programs_switches;
    Alcotest.test_case "looping intent rejected" `Quick
      test_looping_intent_rejected;
    Alcotest.test_case "uncompilable intent rejected twice" `Quick
      test_uncompilable_rejected_twice;
    test_memo_matches_fresh_compile;
    test_first_hops_match_per_pair_bfs;
    Alcotest.test_case "compromise reroutes after crash" `Quick
      test_compromise_reroutes_after_crash;
    Alcotest.test_case "fuzzer scenario derives compromise" `Quick
      test_fuzzer_scenario_derives_compromise;
  ]
