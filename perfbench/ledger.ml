(* The per-layer time ledger of a traced pass.

   The benchmark times each call it makes into the stack (inject, fault,
   ticks, step) and drains the runtime's tracer after each one. A call's
   wall time splits into the self times of the spans it produced plus its
   own self time (the part no span covers), so the rows below partition
   the pass: every named row plus [bench.driver_s] (the replay loop's
   own work between calls) adds up to the pass total, and whatever lands
   in no named row is the unattributed remainder. *)

(* The ledger rows, in report order. *)
let rows =
  [
    "netsim.inject_s";
    "netsim.fault_s";
    "netsim.tick_s";
    "runtime.tick_s";
    "runtime.poll_s";
    "runtime.event_self_s";
    "dispatch.batch_self_s";
    "sandbox.app_s";
    "invariants.detect_s";
    "netlog.commit_s";
    "netlog.rollback_s";
    "checkpoint.take_s";
    "checkpoint.restore_s";
    "crashpad.recovery_s";
  ]

(* Which row a span's self time belongs to. Kinds these workloads never
   open (cluster, voting) and the zero-width delivery and cache marks
   have no row: any time they carried would show as unattributed. *)
let row_of_kind : Obs.Span.kind -> string option = function
  | Event_root -> Some "runtime.event_self_s"
  | Batch_root | Shard_dispatch -> Some "dispatch.batch_self_s"
  | App_handle -> Some "sandbox.app_s"
  | Detection -> Some "invariants.detect_s"
  | Txn_commit -> Some "netlog.commit_s"
  | Txn_rollback -> Some "netlog.rollback_s"
  | Ckpt_take -> Some "checkpoint.take_s"
  | Ckpt_restore -> Some "checkpoint.restore_s"
  | Recovery -> Some "crashpad.recovery_s"
  | Delivery | Retransmit | Resync | Inv_cache_hit | Inv_cache_miss
  | Election | Replicate | State_transfer | Failover | Vote | Outvoted ->
      None

(* Self time of every span: its duration minus the durations of its
   direct children. Returns (span, self) pairs in input order, plus the
   summed duration of the spans whose parent is not in the list (the
   roots of this batch). *)
let self_times (spans : Obs.Span.t list) =
  let child_time = Hashtbl.create 64 in
  let present = Hashtbl.create 64 in
  List.iter (fun (s : Obs.Span.t) -> Hashtbl.replace present s.id ()) spans;
  let roots = ref 0. in
  List.iter
    (fun (s : Obs.Span.t) ->
      let d = Obs.Span.duration s in
      if s.parent >= 0 && Hashtbl.mem present s.parent then
        Hashtbl.replace child_time s.parent
          (d +. Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.)
      else roots := !roots +. d)
    spans;
  let selves =
    List.map
      (fun (s : Obs.Span.t) ->
        let c = Option.value (Hashtbl.find_opt child_time s.id) ~default:0. in
        (s, Obs.Span.duration s -. c))
      spans
  in
  (selves, !roots)

type t = {
  cells : (string, float ref) Hashtbl.t;
  mutable batches : int;  (* [Batch_root] spans seen *)
  mutable batched_events : int;  (* events those batches carried *)
}

let create () =
  let cells = Hashtbl.create 32 in
  List.iter (fun r -> Hashtbl.replace cells r (ref 0.)) rows;
  { cells; batches = 0; batched_events = 0 }

let add t row x =
  match Hashtbl.find_opt t.cells row with
  | Some c -> c := !c +. x
  | None -> Hashtbl.replace t.cells row (ref x)

let get t row =
  match Hashtbl.find_opt t.cells row with Some c -> !c | None -> 0.

(* Charge one timed call: its self time to [row], the self time of each
   span it produced to that span's row. *)
let account t ~row ~dur spans =
  let selves, roots = self_times spans in
  add t row (dur -. roots);
  List.iter
    (fun ((s : Obs.Span.t), self) ->
      (match row_of_kind s.kind with Some r -> add t r self | None -> ());
      if s.kind = Obs.Span.Batch_root then begin
        t.batches <- t.batches + 1;
        match List.assoc_opt "events" s.attrs with
        | Some n -> t.batched_events <- t.batched_events + int_of_string n
        | None -> ()
      end)
    selves

(* Sum of the named rows. *)
let attributed t = List.fold_left (fun acc r -> acc +. get t r) 0. rows
