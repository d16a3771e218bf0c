(* The benchmark's own tests: the order statistics, the ledger's
   self-time arithmetic, the delivery cap, and a short smoke pass of every
   workload. *)

open Perfbench

let close = Alcotest.float 1e-9

(* Expected values are what Python's [statistics.quantiles] returns. *)
let t_quantiles () =
  let xs = List.init 10 (fun i -> float_of_int (i + 1)) in
  let a = Stats.sorted xs in
  Alcotest.check close "q1" 2.75 (Stats.cut a ~n:4 ~i:1);
  Alcotest.check close "q2" 5.5 (Stats.cut a ~n:4 ~i:2);
  Alcotest.check close "q3" 8.25 (Stats.cut a ~n:4 ~i:3);
  Alcotest.check close "p90" 9.9 (Stats.percentile xs 90);
  Alcotest.check close "p50 is the median" 5.5 (Stats.percentile xs 50);
  (* Two samples: the exclusive method extrapolates past the ends. *)
  let two = Stats.sorted [ 2.; 1. ] in
  Alcotest.check close "q1 of two" 0.75 (Stats.cut two ~n:4 ~i:1);
  Alcotest.check close "q3 of two" 2.25 (Stats.cut two ~n:4 ~i:3);
  Alcotest.check close "one sample" 7. (Stats.percentile [ 7. ] 90)

let t_median () =
  Alcotest.check close "odd" 3. (Stats.median [ 5.; 1.; 3. ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ])

let t_fastest_steps () =
  let steps =
    Stats.fastest_steps [ [| 3.; 1.; 5. |]; [| 2.; 4.; 5. |]; [| 6.; 2.; 4. |] ]
  in
  Alcotest.(check (array close)) "per-step minima" [| 2.; 1.; 4. |] steps;
  Alcotest.check close "their total" 7. (Stats.total steps)

let span ?(attrs = []) id parent kind t0 t1 : Obs.Span.t =
  { id; parent; kind; vt = 0.; vt_end = 0.; t0; t1; attrs }

(* One call of 12 s that produced: an event (0..10) holding an app
   delivery (1..4) with a zero-width cache mark, and a detection (5..9)
   holding a commit (6..7); then a 1 s vote, a kind with no row. *)
let calls =
  Obs.Span.
    [
      span 5 2 Inv_cache_hit 2. 2.;
      span 2 1 App_handle 1. 4.;
      span 4 1 Detection 5. 9.;
      span 3 4 Txn_commit 6. 7.;
      span 1 (-1) Event_root 0. 10.;
      span 6 (-1) Vote 10. 11.;
    ]

let t_self_times () =
  let selves, roots = Ledger.self_times calls in
  Alcotest.check close "roots" 11. roots;
  let self id =
    snd (List.find (fun ((s : Obs.Span.t), _) -> s.id = id) selves)
  in
  Alcotest.check close "event" 3. (self 1);
  Alcotest.check close "app" 3. (self 2);
  Alcotest.check close "commit" 1. (self 3);
  Alcotest.check close "detection" 3. (self 4);
  Alcotest.check close "instant" 0. (self 5)

let t_ledger () =
  let l = Ledger.create () in
  Ledger.account l ~row:"runtime.poll_s" ~dur:12. calls;
  Ledger.account l ~row:"netsim.inject_s" ~dur:0.5 [];
  Ledger.account l ~row:"runtime.poll_s" ~dur:2.
    [
      span ~attrs:[ ("events", "3") ] 7 (-1) Obs.Span.Batch_root 0. 1.;
      span ~attrs:[ ("events", "5") ] 8 (-1) Obs.Span.Batch_root 1. 1.5;
    ];
  let row = Ledger.get l in
  Alcotest.check close "poll self" 1.5 (row "runtime.poll_s");
  Alcotest.check close "inject" 0.5 (row "netsim.inject_s");
  Alcotest.check close "event self" 3. (row "runtime.event_self_s");
  Alcotest.check close "app" 3. (row "sandbox.app_s");
  Alcotest.check close "detect" 3. (row "invariants.detect_s");
  Alcotest.check close "commit" 1. (row "netlog.commit_s");
  Alcotest.check close "batches" 1.5 (row "dispatch.batch_self_s");
  (* 14.5 s of calls; the vote's second has no row. *)
  Alcotest.check close "attributed" 13.5 (Ledger.attributed l);
  Alcotest.(check int) "batch count" 2 l.batches;
  Alcotest.(check int) "batched events" 8 l.batched_events

let t_delivery_cap () =
  let pair = Alcotest.(pair int int) in
  Alcotest.check pair "lost" (0, 0) (Worlds.credit ~before:5 ~after:5);
  Alcotest.check pair "once" (1, 0) (Worlds.credit ~before:5 ~after:6);
  Alcotest.check pair "replayed twice" (1, 2) (Worlds.credit ~before:5 ~after:8)

(* Two fresh worlds replaying the same short trace do the same work. *)
let t_smoke (name, w) () =
  let trace = Worlds.trace ~horizon:2. w ~seed:7 in
  let pass () = Worlds.replay (Worlds.build w) trace in
  let a = pass () and b = pass () in
  Alcotest.(check (list (pair string int)))
    (name ^ " fingerprint") (Worlds.fingerprint a) (Worlds.fingerprint b);
  Alcotest.(check bool) "some packets" true (a.injected > 0);
  Alcotest.(check bool) "capped" true (a.delivered <= a.injected)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "quantiles match Python" `Quick t_quantiles;
          Alcotest.test_case "median" `Quick t_median;
          Alcotest.test_case "per-step minima" `Quick t_fastest_steps;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "self times" `Quick t_self_times;
          Alcotest.test_case "rows partition the calls" `Quick t_ledger;
        ] );
      ( "delivery",
        [ Alcotest.test_case "each packet counts once" `Quick t_delivery_cap ]
      );
      ( "smoke",
        List.map
          (fun ((name, _) as w) ->
            Alcotest.test_case (name ^ " passes agree") `Quick (t_smoke w))
          Worlds.all );
    ]
