open Openflow
open Controller

type config = {
  policy : Recovery_policy.t;
  invariants : Invariants.Checker.invariant list;
  timing : Detector.timing;
  limits : Resources.limits;
  quarantine : Quarantine.t option;
  intent : bool;
      (* When on, apps that declare a policy get (a) their compiled tables
         kept in sync with the network after healthy deliveries and (b) a
         policy-derived candidate rule-set tried first under an Equivalence
         compromise — installed only if it provably preserves the declared
         forwarding relation and the configured invariants. *)
  batched_checkpoints : bool;
      (* The batch engine checkpoints every sandbox at batch entry and
         journals within the batch; the per-event prepare here is then
         redundant work, not a correctness requirement (recovery replays
         the intra-batch journal under the same frozen context the events
         were first delivered with). *)
}

let default_config =
  {
    policy = Recovery_policy.uniform Recovery_policy.Equivalence;
    invariants = Invariants.Checker.default;
    timing = Detector.default_timing;
    limits = Resources.unlimited;
    quarantine = None;
    intent = true;
    batched_checkpoints = false;
  }

type deps = {
  engine : Txn_engine.t;
  incremental : Invariants.Incremental.t option;
  net : Netsim.Net.t;
  context : unit -> App_sig.context;
  links_of : Types.switch_id -> Event.link list;
  metrics : Metrics.t;
  tickets : Ticket.store;
  now : unit -> float;
  enqueue_reply : string -> Event.t -> unit;
  unreachable : Types.switch_id -> bool;
  tracer : Obs.Tracer.t;
}

let file_ticket deps sandbox ~event ~diagnosis ~resolution ~rolled_back =
  ignore
    (Ticket.file deps.tickets ~now:(deps.now ()) ~app:(Sandbox.name sandbox)
       ~event ~diagnosis ~resolution ~rolled_back_ops:rolled_back ())

let count_failure deps = function
  | Detector.Fail_stop _ -> Metrics.incr_crash deps.metrics
  | Detector.Hang -> Metrics.incr_hang deps.metrics
  | Detector.Byzantine _ -> Metrics.incr_byzantine deps.metrics
  | Detector.Unreachable _ -> Metrics.incr_unreachable deps.metrics

let failure_kind = function
  | Detector.Fail_stop _ -> "fail-stop"
  | Detector.Hang -> "hang"
  | Detector.Byzantine _ -> "byzantine"
  | Detector.Unreachable _ -> "unreachable"

(* Reply events (statistics) produced while applying commands go back to the
   issuing application as ordinary events. *)
let route_replies deps sandbox sid replies =
  List.iter
    (fun (reply : Message.t) ->
      match reply.payload with
      | Message.Stats_reply sr ->
          deps.enqueue_reply (Sandbox.name sandbox)
            (Event.Stats_reply (sid, reply.xid, sr))
      | Message.Flow_removed fr ->
          deps.enqueue_reply (Sandbox.name sandbox) (Event.Flow_removed (sid, fr))
      | _ -> ())
    replies

let switch_of_command = function
  | Command.Flow (sid, _) | Command.Packet (sid, _) | Command.Port (sid, _)
  | Command.Stats (sid, _) ->
      Some sid
  | Command.Log _ -> None

(* ---------------- declarative intent ---------------- *)

(* Intent counters are registry handles, looked up by name where they are
   bumped. *)
let bump deps name = Metrics.incr (Metrics.counter deps.metrics name)

(* Recompile the app's declared policy against the current network view and
   diff it against what the network holds. Compilation is memoized per
   sandbox, so an unchanged intent costs one equality check. The candidate
   diff is installed only after two independent checks: the compiled tables
   must agree with the policy's denotation on a probe set covering every
   rule (forwarding relation preserved), and the flow-mods must not
   introduce an invariant violation (incremental engine when available). *)
let sync_intent config deps sandbox =
  if not config.intent then `No_intent
  else
    let ctx = deps.context () in
    match Sandbox.declared_policy sandbox ctx with
    | None -> `No_intent
    | Some pol -> (
        let switches = App_sig.switches ctx in
        match Sandbox.compile_intent sandbox ~switches pol with
        | exception Policy.Uncompilable _ ->
            bump deps "policy_compiles";
            `Rejected
        | outcome, tables -> (
            bump deps
              (match outcome with
              | `Hit -> "policy_compile_hits"
              | `Compiled -> "policy_compiles");
            let mods =
              Policy.flow_mods ~prev:(Sandbox.intent_tables sandbox)
                ~next:tables
              (* Tables are declarative, idempotent state, so mods aimed at
                 switches that left the network (or whose channel is given
                 up on) are simply dropped — typically strict deletes for a
                 dead switch's rows, moot because its table died with it.
                 Unlike an app transaction there is no atomicity to lose:
                 the next reconciliation re-derives whatever remains. *)
              |> List.filter (fun (sid, _) ->
                     List.mem sid switches && not (deps.unreachable sid))
            in
            if mods = [] then begin
              (* Network already reflects the intent (or intent is empty). *)
              Sandbox.set_intent_tables sandbox tables;
              `Noop
            end
            else
              let ports sid = App_sig.switch_ports ctx sid in
              let probes = Policy.probes ~ports tables in
              if not (Policy.agrees ~ports ~switches pol tables ~probes) then
                `Rejected
              else
                let violations =
                  match deps.incremental with
                  | Some engine ->
                      Invariants.Incremental.check_flow_mods
                        ~invariants:config.invariants engine mods
                  | None ->
                      Invariants.Checker.check_flow_mods
                        ~invariants:config.invariants
                        (Invariants.Snapshot.of_net deps.net)
                        mods
                in
                match violations with
                | _ :: _ -> `Rejected
                | [] ->
                    let txn =
                      deps.engine.Txn_engine.begin_txn
                        ~app:(Sandbox.name sandbox)
                    in
                    List.iter
                      (fun (sid, fm) ->
                        ignore (txn.Txn_engine.apply (Command.Flow (sid, fm))))
                      mods;
                    txn.Txn_engine.commit ();
                    Sandbox.set_intent_tables sandbox tables;
                    `Installed (List.length mods)))

(* After a healthy commit: if the delivery moved the app's declared intent,
   push the (verified) diff out so hardware tracks intent continuously. *)
let reconcile_intent config deps sandbox =
  match sync_intent config deps sandbox with
  | `Installed _ -> bump deps "policy_reconciles"
  | `Rejected -> bump deps "policy_rejected"
  | `Noop | `No_intent -> ()

(* Deliver one event inside a fresh transaction. Returns [Ok ()] on commit,
   [Error (failure, rolled_back)] after an abort. The sandbox state has
   already been repaired (restore + replay) when [Error] is returned. *)
let attempt config deps sandbox event : (unit, Detector.failure * int) result =
  if not config.batched_checkpoints then Sandbox.prepare ~tracer:deps.tracer sandbox;
  let txn = deps.engine.Txn_engine.begin_txn ~app:(Sandbox.name sandbox) in
  let fail_and_recover failure ~partial =
    let attrs =
      if Obs.Tracer.enabled deps.tracer then
        [ ("phase", "replay"); ("failure", failure_kind failure) ]
      else []
    in
    Obs.Tracer.with_span deps.tracer ~attrs Obs.Span.Recovery (fun () ->
        (* Partial output escaped before the crash: it reached the network,
           so it must be in the transaction to be rolled back with it. *)
        List.iter (fun cmd -> ignore (txn.Txn_engine.apply cmd)) partial;
        let rolled_back = List.length (txn.Txn_engine.issued ()) in
        txn.Txn_engine.abort ();
        count_failure deps failure;
        Metrics.add_app_downtime deps.metrics ~app:(Sandbox.name sandbox)
          (Detector.detection_delay config.timing failure);
        let recovery = Sandbox.recover ~tracer:deps.tracer sandbox (deps.context ()) in
        Metrics.incr_replayed deps.metrics recovery.Sandbox.replayed;
        Metrics.incr_dropped_in_replay deps.metrics
          recovery.Sandbox.dropped_in_replay;
        Error (failure, rolled_back))
  in
  let verdict =
    let attrs =
      if Obs.Tracer.enabled deps.tracer then
        [ ("app", Sandbox.name sandbox) ]
      else []
    in
    Obs.Tracer.with_span deps.tracer ~attrs Obs.Span.App_handle (fun () ->
        Sandbox.deliver sandbox (deps.context ()) event)
  in
  match verdict with
  | Sandbox.Done commands -> (
      (* Screen before commit: resource limits, then byzantine output. *)
      let breaches =
        Resources.check config.limits
          ~state_bytes:(fun () -> Sandbox.state_size sandbox)
          ~commands_emitted:(List.length commands)
      in
      if breaches <> [] then begin
        txn.Txn_engine.abort ();
        Sandbox.revert_last sandbox;
        Metrics.incr_resource_breach deps.metrics;
        file_ticket deps sandbox ~event
          ~diagnosis:
            (String.concat "; " (List.map Resources.describe breaches))
          ~resolution:Ticket.Blocked ~rolled_back:0;
        (* Contain the rogue app: restart it with fresh state. *)
        Sandbox.reboot sandbox;
        Sandbox.checkpoint_now sandbox;
        Ok ()
      end
      else
        match
          Detector.check_byzantine ~tracer:deps.tracer
            ?engine:deps.incremental ~invariants:config.invariants deps.net
            commands
        with
        | Some failure ->
            txn.Txn_engine.abort ();
            Sandbox.revert_last sandbox;
            count_failure deps failure;
            Error (failure, 0)
        | None ->
        (* Screen for dead control channels: a transaction that would touch
           a switch the reliable layer has given up on must abort before
           anything reaches the network, or it can never fully commit. *)
        match
          List.find_map
            (fun cmd ->
              match switch_of_command cmd with
              | Some sid when deps.unreachable sid -> Some sid
              | Some _ | None -> None)
            commands
        with
        | Some sid ->
            let failure = Detector.Unreachable { switch = sid } in
            txn.Txn_engine.abort ();
            Sandbox.revert_last sandbox;
            count_failure deps failure;
            Error (failure, 0)
        | None ->
            let attrs =
              if Obs.Tracer.enabled deps.tracer then
                [
                  ("app", Sandbox.name sandbox);
                  ("commands", string_of_int (List.length commands));
                ]
              else []
            in
            Obs.Tracer.with_span deps.tracer ~attrs Obs.Span.Txn_commit
              (fun () ->
                List.iter
                  (fun cmd ->
                    let replies = txn.Txn_engine.apply cmd in
                    match switch_of_command cmd with
                    | Some sid -> route_replies deps sandbox sid replies
                    | None -> ())
                  commands;
                txn.Txn_engine.commit ());
            Sandbox.confirm sandbox event;
            reconcile_intent config deps sandbox;
            Ok ())
  | Sandbox.Crashed { partial; detail } ->
      fail_and_recover (Detector.Fail_stop { detail; partial }) ~partial
  | Sandbox.Hung -> fail_and_recover Detector.Hang ~partial:[]

(* Try the equivalence alternatives in order; an alternative succeeds when
   every event in its sequence commits. No second-level transformation: a
   crash inside an alternative falls through to the next one. *)
let rec try_alternatives config deps sandbox = function
  | [] -> None
  | alternative :: rest ->
      let ok =
        List.for_all
          (fun ev ->
            match attempt config deps sandbox ev with
            | Ok () -> true
            | Error _ -> false)
          alternative
      in
      if ok then Some alternative
      else try_alternatives config deps sandbox rest

let compromise_name = function
  | Recovery_policy.No_compromise -> "no-compromise"
  | Recovery_policy.Absolute -> "absolute"
  | Recovery_policy.Equivalence -> "equivalence"

let apply_policy config deps sandbox event failure ~rolled_back =
  let diagnosis = Detector.describe failure in
  let compromise =
    Recovery_policy.decide config.policy ~app:(Sandbox.name sandbox)
      (Event.kind_of event)
  in
  let attrs =
    if Obs.Tracer.enabled deps.tracer then
      [
        ("phase", "policy");
        ("failure", failure_kind failure);
        ("compromise", compromise_name compromise);
      ]
    else []
  in
  Obs.Tracer.with_span deps.tracer ~attrs Obs.Span.Recovery @@ fun () ->
  match compromise with
  | Recovery_policy.No_compromise ->
      Sandbox.disable sandbox;
      Metrics.incr_disabled deps.metrics;
      Metrics.mark_app_down_from deps.metrics ~app:(Sandbox.name sandbox)
        (deps.now ());
      file_ticket deps sandbox ~event ~diagnosis ~resolution:Ticket.Disabled
        ~rolled_back
  | Recovery_policy.Absolute ->
      Metrics.incr_ignored deps.metrics;
      file_ticket deps sandbox ~event ~diagnosis ~resolution:Ticket.Ignored
        ~rolled_back
  | Recovery_policy.Equivalence -> (
      (* A declared policy is the strongest equivalence witness we have:
         recompile the intent from the recovered state and install the
         verified diff, compensating for the crashed delivery without
         replaying anything through the faulty code path. *)
      match sync_intent config deps sandbox with
      | `Installed n ->
          bump deps "policy_compromises";
          Metrics.incr_transformed deps.metrics;
          file_ticket deps sandbox ~event ~diagnosis
            ~resolution:
              (Ticket.Transformed
                 (Printf.sprintf "policy-recompile(%s, %d flow-mods)"
                    (Sandbox.name sandbox) n))
            ~rolled_back
      | (`Rejected | `Noop | `No_intent) as r -> (
          if r = `Rejected then bump deps "policy_rejected";
          (* Fall back to hand-coded event transformations. *)
          let alternatives =
            Transform.equivalents ~links_of:deps.links_of event
          in
          match try_alternatives config deps sandbox alternatives with
          | Some alternative ->
              Metrics.incr_transformed deps.metrics;
              file_ticket deps sandbox ~event ~diagnosis
                ~resolution:
                  (Ticket.Transformed (Transform.describe alternative))
                ~rolled_back
          | None ->
              (* No equivalent worked: fall back to ignoring the event. *)
              Metrics.incr_ignored deps.metrics;
              file_ticket deps sandbox ~event ~diagnosis
                ~resolution:Ticket.Ignored ~rolled_back))

let quarantine_blocked config deps sandbox event =
  match config.quarantine with
  | None -> false
  | Some q ->
      let hit = Quarantine.blocked q ~app:(Sandbox.name sandbox) event in
      if hit then Metrics.incr_suppressed deps.metrics;
      hit

let note_quarantine config deps sandbox event =
  match config.quarantine with
  | None -> ()
  | Some q -> (
      match Quarantine.note_failure q ~app:(Sandbox.name sandbox) event with
      | `Quarantined -> Metrics.incr_quarantined deps.metrics
      | `Recorded -> ())

let dispatch config deps sandbox event =
  if
    Sandbox.alive sandbox
    && Sandbox.subscribes_to sandbox (Event.kind_of event)
    && not (quarantine_blocked config deps sandbox event)
  then
    match attempt config deps sandbox event with
    | Ok () -> ()
    | Error (failure, rolled_back) ->
        note_quarantine config deps sandbox event;
        apply_policy config deps sandbox event failure ~rolled_back
