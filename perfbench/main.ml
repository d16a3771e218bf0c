(* The end-to-end benchmark's command-line runner.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Replays the workload's seeded trace on a freshly built world, pass
   after pass, for S seconds of wall time after a discarded warm-up.
   With --trace 0 it reports the end-to-end metrics; with --trace 1 it
   alternates traced and untraced passes and reports the per-layer ledger
   and counts. The last line of standard output is one JSON object; the
   exit code is 0 only when every check passed. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: flowsetup-k4 arpdir-k16 faults-k4 intent-k4";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := Worlds.of_name v;
        if !workload = None then usage ();
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := Some (v = "1");
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some s, Some t when s > 0. -> (w, seed, s, t)
  | _ -> usage ()

(* {1 One pass, with its set-up} *)

type sample = {
  setup_steps_s : float array;
  pass : Worlds.pass;
  live_mb : float;
  probe : Worlds.probe option;  (* traced passes only *)
}

let run_pass w trace ~traced =
  Gc.full_major ();
  let world = Worlds.build w in
  let probe = if traced then Some (Worlds.attach world) else None in
  let pass = Worlds.replay ?probe world trace in
  Gc.full_major ();
  let live_words = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity world);
  let live_mb = float_of_int (live_words * (Sys.word_size / 8)) /. 1e6 in
  { setup_steps_s = world.setup_steps_s; pass; live_mb; probe }

(* The fastest quarter of [xs] by [key] (at least one). Other tenants
   of a shared host can slow stretches of passes by up to 2x; the fastest
   quarter of a run's passes reads the code's own speed unless almost all
   of the run fell in such a stretch. *)
let fastest key xs =
  let sorted = List.sort (fun a b -> Float.compare (key a) (key b)) xs in
  List.filteri (fun i _ -> i < max 1 (List.length xs / 4)) sorted

let medf f xs = Stats.median (List.map f xs)

(* {1 Reporting} *)

type metric = { name : string; unit_ : string; value : float }

(* Throughput and latency come from the per-step minima of the replay:
   packets over the sum of every step's minimum, and the percentiles of
   the minima of the packets that reached the controller. Set-up time is
   the sum of every set-up step's minimum over the run's builds. *)
let end_to_end samples =
  let passes = List.map (fun s -> s.pass) samples in
  let first = List.hd passes in
  let steps =
    Stats.fastest_steps (List.map (fun (p : Worlds.pass) -> p.steps_s) passes)
  in
  let react = Worlds.react_s first steps in
  let react_us pct = if react = [] then 0. else 1e6 *. Stats.percentile react pct in
  let sum f = List.fold_left (fun acc p -> acc +. f p) 0. passes in
  [
    {
      name = "pkts_per_s";
      unit_ = "1/s";
      value = float_of_int first.injected /. Stats.total steps;
    };
    { name = "react_p50_us"; unit_ = "us"; value = react_us 50 };
    { name = "react_p90_us"; unit_ = "us"; value = react_us 90 };
    {
      name = "delivered_pct";
      unit_ = "%";
      value =
        100. *. sum (fun p -> float_of_int p.delivered)
        /. sum (fun p -> float_of_int p.injected);
    };
    {
      name = "setup_s";
      unit_ = "s";
      value =
        Stats.total
          (Stats.fastest_steps (List.map (fun s -> s.setup_steps_s) samples));
    };
    { name = "live_mb"; unit_ = "MB"; value = medf (fun s -> s.live_mb) samples };
  ]

let per_layer ~traced ~untraced =
  let wall s = s.pass.Worlds.wall_s in
  let traced = fastest wall traced in
  let pairs = List.map (fun s -> (s.pass, Option.get s.probe)) traced in
  let on_pass f = medf (fun (pass, probe) -> f pass probe) pairs in
  let count k =
    on_pass (fun (p : Worlds.pass) _ -> float_of_int (List.assoc k p.counts))
  in
  let per_event (p : Worlds.pass) x =
    x /. float_of_int (max 1 (List.assoc "events" p.counts))
  in
  let m name unit_ value = { name; unit_; value } in
  List.map
    (fun r -> m r "s" (on_pass (fun _ (pr : Worlds.probe) -> Ledger.get pr.ledger r)))
    Ledger.rows
  @ [
      m "bench.driver_s" "s"
        (on_pass (fun p (pr : Worlds.probe) -> p.wall_s -. pr.calls_s));
      m "bench.unattributed_pct" "%"
        (on_pass (fun p pr -> Worlds.unattributed_pct p pr));
      m "runtime.step_s" "s" (on_pass (fun _ pr -> pr.step_s));
      m "runtime.events" "count" (count "events");
      m "runtime.events_per_s" "1/s"
        (on_pass (fun p pr ->
             float_of_int (List.assoc "events" p.counts)
             /. (pr.step_s +. Ledger.get pr.ledger "runtime.tick_s")));
      m "runtime.events_shed" "count" (count "events_shed");
      m "netsim.punt_pct" "%"
        (on_pass (fun p _ ->
             100. *. float_of_int p.punted /. float_of_int p.injected));
      m "netsim.dup_deliveries" "count"
        (on_pass (fun p _ -> float_of_int p.dup_deliveries));
      m "netsim.blackholed" "count" (count "blackholed");
      m "dispatch.batch_size_mean" "count"
        (on_pass (fun _ pr ->
             float_of_int pr.ledger.batched_events
             /. float_of_int (max 1 pr.ledger.batches)));
      m "sandbox.rpc_bytes_per_event" "B"
        (on_pass (fun p _ ->
             per_event p (float_of_int (List.assoc "rpc_bytes" p.counts))));
      m "invariants.cache_hit_ratio" "ratio"
        (on_pass (fun p _ ->
             let h = List.assoc "inv_hits" p.counts
             and n = List.assoc "inv_misses" p.counts in
             if h + n = 0 then 0. else float_of_int h /. float_of_int (h + n)));
      m "invariants.evictions" "count" (count "evictions");
      m "netlog.committed" "count" (count "committed");
      m "netlog.aborted" "count" (count "aborted");
      m "netlog.ops_rolled_back" "count" (count "ops_rolled_back");
      m "reliable.acks" "count" (count "acks");
      m "reliable.retransmits" "count" (count "retransmits");
      m "reliable.resyncs" "count" (count "resyncs");
      m "checkpoint.bytes_written" "B" (count "ckpt_bytes");
      m "crashpad.crashes" "count" (count "crashes");
      m "crashpad.tickets" "count" (count "tickets");
      m "crashpad.transformed" "count" (count "transformed");
      m "policy.reconciles" "count" (count "reconciles");
      m "policy.compromises" "count" (count "compromises");
      m "policy.rejected" "count" (count "rejected");
      m "gc.alloc_words_per_event" "words"
        (on_pass (fun p _ -> per_event p p.alloc_words));
      m "gc.major_collections" "count"
        (on_pass (fun p _ -> float_of_int p.major_collections));
      m "obs.trace_overhead" "ratio"
        (medf wall traced /. medf wall (fastest wall untraced));
      m "bench.react_n" "count"
        (on_pass (fun p _ -> float_of_int (List.length p.reacted)));
    ]

(* {1 Checks} *)

let check w ~(first : Worlds.pass) s =
  let p = s.pass in
  let c k = List.assoc k p.counts in
  let react_n = List.length p.reacted in
  let crashes = c "crashes" and tickets = c "tickets" in
  let failed cond msg = if cond then [ msg ] else [] in
  List.concat
    [
      failed
        (Worlds.fingerprint p <> Worlds.fingerprint first)
        "a pass did different work than the first";
      failed
        (p.reacted <> first.reacted)
        "a pass reached the controller on different packets than the first";
      failed (p.delivered > p.injected) "delivered more packets than injected";
      failed
        (Worlds.expects_full_delivery w && p.delivered < p.injected)
        (Printf.sprintf "%d of %d packets were not delivered"
           (p.injected - p.delivered) p.injected);
      failed (react_n < Worlds.min_reacted w)
        (Printf.sprintf "only %d packets reached the controller" react_n);
      failed
        (Worlds.injects_crashes w && (crashes = 0 || tickets = 0))
        "the injected bug never crashed the router";
      failed
        ((not (Worlds.injects_crashes w)) && crashes + tickets > 0)
        (Printf.sprintf "%d crashes and %d tickets on a healthy workload"
           crashes tickets);
      (match s.probe with
      | None -> []
      | Some pr ->
          let u = Worlds.unattributed_pct p pr in
          let row = Ledger.get pr.ledger in
          pr.problems
          @ failed (u >= 10.)
              (Printf.sprintf "%.1f%% of the traced time is unattributed" u)
          @ failed
              (w = Worlds.Arpdir_k16 && row "invariants.detect_s" > 0.)
              "invariant screening ran without flow-mods"
          @ failed
              ((not (Worlds.injects_crashes w))
              && row "crashpad.recovery_s" > 0.)
              "recovery ran on a healthy workload");
    ]

(* {1 The run} *)

let () =
  let w, seed, seconds, traced = parse_args () in
  let trace = Worlds.trace w ~seed in
  (* Warm-up: the first pass in a process runs slower. Replaying the
     first quarter of the trace warms the same code paths. *)
  ignore (run_pass w (Worlds.prefix trace ~fraction:0.25) ~traced:false);
  let untraced = ref [] and traced_s = ref [] in
  let t_end = Worlds.now () +. seconds in
  (* Passes run until the next one would end past [seconds], but there
     are at least [min_passes] of each kind. *)
  let min_passes = 3 in
  let last = ref 0. in
  let enough () =
    Worlds.now () +. !last >= t_end
    && List.length !untraced >= min_passes
    && ((not traced) || List.length !traced_s >= min_passes)
  in
  let i = ref 0 in
  while not (enough ()) do
    let tr = traced && !i mod 2 = 1 in
    let t0 = Worlds.now () in
    let s = run_pass w trace ~traced:tr in
    last := Worlds.now () -. t0;
    if tr then traced_s := s :: !traced_s else untraced := s :: !untraced;
    incr i
  done;
  let untraced = List.rev !untraced and traced_s = List.rev !traced_s in
  let all = untraced @ traced_s in
  let first = (List.hd all).pass in
  let reference = Worlds.fingerprint first in
  let failures =
    List.sort_uniq compare (List.concat_map (check w ~first) all)
  in
  let metrics =
    if traced then per_layer ~traced:traced_s ~untraced
    else end_to_end untraced
  in
  Printf.printf "workload %s seed %d, OCaml %s: %d passes (%d traced)\n"
    (Worlds.name w) seed Sys.ocaml_version (List.length all)
    (List.length traced_s);
  Printf.printf "fingerprint %s; react_n %d\n"
    (String.concat " "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) reference))
    (List.length first.reacted);
  List.iter
    (fun m -> Printf.printf "  %-28s %14.6g %s\n" m.name m.value m.unit_)
    metrics;
  List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) failures;
  let correct = failures = [] in
  let attempted = List.fold_left (fun acc s -> acc + s.pass.injected) 0 all in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted
    (if correct then 0 else attempted)
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name
              m.value m.unit_)
          metrics));
  exit (if correct then 0 else 1)
