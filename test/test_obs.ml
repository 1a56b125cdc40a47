(* Tests for the telemetry layer (Es_obs): counter/timer/span
   semantics under a fake clock, disabled-mode no-ops, snapshot
   filtering, and the JSON round-trip used by the bench baseline.

   Obs state is process-global and shared with the instrumented
   solver libraries, so every test starts from [reset] and restores
   the disabled state and the real clock on the way out. *)

module Obs = Es_obs.Obs
module Json = Es_obs.Obs_json

(* A stepping fake clock: tests advance it explicitly, so timer totals
   are exact and assertable. *)
let fake_time = ref 0.

let with_obs f =
  Obs.reset ();
  Obs.enable ();
  fake_time := 0.;
  Obs.set_clock (fun () -> !fake_time);
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ();
      Obs.set_clock Unix.gettimeofday)
    f

let check_float = Alcotest.(check (float 1e-12))

let test_counter_semantics () =
  with_obs @@ fun () ->
  let c = Obs.counter "test_obs_counter" in
  Alcotest.(check int) "starts at zero" 0 (Obs.value c);
  Obs.incr c;
  Obs.incr c;
  Obs.add c 5;
  Alcotest.(check int) "incr + add" 7 (Obs.value c);
  (* find-or-create returns the same cell *)
  let c' = Obs.counter "test_obs_counter" in
  Obs.incr c';
  Alcotest.(check int) "same handle by name" 8 (Obs.value c);
  Obs.reset ();
  Alcotest.(check int) "reset zeroes in place" 0 (Obs.value c)

let test_disabled_is_noop () =
  Obs.reset ();
  Obs.disable ();
  let c = Obs.counter "test_obs_disabled" in
  Obs.incr c;
  Obs.add c 10;
  Alcotest.(check int) "counter untouched" 0 (Obs.value c);
  (* when disabled, [time] must run the thunk without reading the
     clock at all — a poisoned clock proves it *)
  Obs.set_clock (fun () -> Alcotest.fail "clock read while disabled");
  Fun.protect ~finally:(fun () -> Obs.set_clock Unix.gettimeofday) @@ fun () ->
  let t = Obs.timer "test_obs_disabled_timer" in
  Alcotest.(check int) "thunk still runs" 41 (Obs.time t (fun () -> 41));
  Alcotest.(check int) "span thunk still runs" 42 (Obs.with_span "s" (fun () -> 42));
  Alcotest.(check int) "no invocation recorded" 0 (Obs.timer_count t)

let test_timer_accumulates_fake_clock () =
  with_obs @@ fun () ->
  let t = Obs.timer "test_obs_timer" in
  let v =
    Obs.time t (fun () ->
        fake_time := !fake_time +. 1.5;
        "done")
  in
  Alcotest.(check string) "returns thunk value" "done" v;
  ignore (Obs.time t (fun () -> fake_time := !fake_time +. 0.25));
  check_float "total is sum of deltas" 1.75 (Obs.timer_total t);
  Alcotest.(check int) "two invocations" 2 (Obs.timer_count t)

let test_timer_records_on_exception () =
  with_obs @@ fun () ->
  let t = Obs.timer "test_obs_timer_exn" in
  (try
     Obs.time t (fun () ->
         fake_time := !fake_time +. 2.;
         failwith "boom")
   with Failure _ -> ());
  check_float "duration recorded despite raise" 2. (Obs.timer_total t);
  Alcotest.(check int) "invocation recorded" 1 (Obs.timer_count t)

let test_timer_clamps_backward_clock () =
  with_obs @@ fun () ->
  let t = Obs.timer "test_obs_timer_backward" in
  ignore (Obs.time t (fun () -> fake_time := !fake_time -. 5.));
  check_float "negative delta clamped to zero" 0. (Obs.timer_total t);
  Alcotest.(check int) "still counted" 1 (Obs.timer_count t)

let test_span_nesting_aggregates_by_path () =
  with_obs @@ fun () ->
  for _ = 1 to 2 do
    Obs.with_span "outer" (fun () ->
        fake_time := !fake_time +. 1.;
        Obs.with_span "inner" (fun () -> fake_time := !fake_time +. 0.5))
  done;
  let snap = Obs.snapshot () in
  let find path =
    match List.find_opt (fun (s : Obs.span_stat) -> s.path = path) snap.Obs.spans with
    | Some s -> s
    | None -> Alcotest.failf "span %s missing" (String.concat "/" path)
  in
  let outer = find [ "outer" ] and inner = find [ "outer"; "inner" ] in
  Alcotest.(check int) "outer entered twice" 2 outer.Obs.span_count;
  Alcotest.(check int) "inner entered twice" 2 inner.Obs.span_count;
  check_float "outer includes inner" 3. outer.Obs.span_total;
  check_float "inner total" 1. inner.Obs.span_total

let test_snapshot_omits_idle_and_sorts () =
  with_obs @@ fun () ->
  let b = Obs.counter "test_obs_b" and a = Obs.counter "test_obs_a" in
  let idle = Obs.counter "test_obs_idle" in
  ignore idle;
  let t_idle = Obs.timer "test_obs_timer_idle" in
  ignore t_idle;
  Obs.incr b;
  Obs.incr a;
  let snap = Obs.snapshot () in
  let names = List.map fst snap.Obs.counters in
  Alcotest.(check bool) "zero counter omitted" false
    (List.mem "test_obs_idle" names);
  Alcotest.(check bool) "idle timer omitted" true (snap.Obs.timers = []);
  Alcotest.(check (list string)) "sorted by name" [ "test_obs_a"; "test_obs_b" ] names

let test_json_round_trip () =
  with_obs @@ fun () ->
  let c = Obs.counter "test_obs_rt_counter" in
  Obs.add c 17;
  let t = Obs.timer "test_obs_rt_timer" in
  ignore (Obs.time t (fun () -> fake_time := !fake_time +. 0.125));
  Obs.with_span "solve" (fun () ->
      fake_time := !fake_time +. 0.0625;
      Obs.with_span "lp" (fun () -> fake_time := !fake_time +. 0.03125));
  let snap = Obs.snapshot () in
  let parsed = Obs.of_json (Json.of_string (Obs.render_json snap)) in
  Alcotest.(check bool) "snapshot survives JSON round-trip" true (parsed = snap)

let test_render_text_mentions_everything () =
  with_obs @@ fun () ->
  let c = Obs.counter "test_obs_text_counter" in
  Obs.incr c;
  let t = Obs.timer "test_obs_text_timer" in
  ignore (Obs.time t (fun () -> fake_time := !fake_time +. 1e-3));
  let s = Obs.render_text (Obs.snapshot ()) in
  List.iter
    (fun affix ->
      Alcotest.(check bool) (affix ^ " present") true
        (Astring.String.is_infix ~affix s))
    [ "counters:"; "test_obs_text_counter"; "timers:"; "test_obs_text_timer" ];
  Obs.reset ();
  Alcotest.(check bool) "empty snapshot says so" true
    (Astring.String.is_infix ~affix:"no telemetry"
       (Obs.render_text (Obs.snapshot ())))

let test_pp_duration_units () =
  Alcotest.(check string) "seconds" "1.500 s" (Obs.pp_duration 1.5);
  Alcotest.(check string) "milliseconds" "2.500 ms" (Obs.pp_duration 2.5e-3);
  Alcotest.(check string) "microseconds" "150.000 us" (Obs.pp_duration 1.5e-4);
  Alcotest.(check string) "nanoseconds" "120 ns" (Obs.pp_duration 1.2e-7)

(* ------------------------------------------------------------------ *)
(* domain safety: no lost increments under parallel mutation           *)
(* ------------------------------------------------------------------ *)

let hammer_domains = 4
let hammer_iters = 50_000

let test_counter_hammer () =
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:(fun () -> Obs.disable (); Obs.reset ()) @@ fun () ->
  let c = Obs.counter "test_obs_hammer_counter" in
  let doms =
    List.init hammer_domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to hammer_iters do
              Obs.incr c
            done;
            Obs.add c 2))
  in
  List.iter Domain.join doms;
  Alcotest.(check int) "no increment lost across 4 domains"
    (hammer_domains * (hammer_iters + 2))
    (Obs.value c)

let test_timer_hammer () =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ();
      Obs.set_clock Unix.gettimeofday)
    @@ fun () ->
    (* a constant clock: every delta is 0, so only the exact invocation
       count is interesting (and totals must stay finite and zero) *)
    Obs.set_clock (fun () -> 1.);
    let t = Obs.timer "test_obs_hammer_timer" in
    let iters = 10_000 in
    let doms =
      List.init hammer_domains (fun _ ->
          Domain.spawn (fun () ->
              for _ = 1 to iters do
                ignore (Obs.time t (fun () -> ()))
              done))
    in
    List.iter Domain.join doms;
    Alcotest.(check int) "no invocation lost across 4 domains"
      (hammer_domains * iters) (Obs.timer_count t);
    check_float "constant clock accumulates zero" 0. (Obs.timer_total t)

let test_span_stacks_are_per_domain () =
  with_obs @@ fun () ->
  (* each domain nests its own spans; a shared-stack implementation
     would interleave the paths and fabricate cross-domain nestings *)
  let doms =
    List.init hammer_domains (fun k ->
        Domain.spawn (fun () ->
            let name = Printf.sprintf "dom%d" k in
            for _ = 1 to 500 do
              Obs.with_span name (fun () -> Obs.with_span "inner" (fun () -> ()))
            done))
  in
  List.iter Domain.join doms;
  let snap = Obs.snapshot () in
  let expected =
    List.concat_map
      (fun k ->
        let name = Printf.sprintf "dom%d" k in
        [ [ name ]; [ name; "inner" ] ])
      (List.init hammer_domains Fun.id)
    |> List.sort (List.compare String.compare)
  in
  Alcotest.(check (list (list string)))
    "exactly the per-domain paths, no interleavings" expected
    (List.map (fun (s : Obs.span_stat) -> s.path) snap.Obs.spans);
  List.iter
    (fun (s : Obs.span_stat) ->
      Alcotest.(check int)
        (String.concat "/" s.path ^ " count")
        500 s.Obs.span_count)
    snap.Obs.spans

let test_json_parser_values () =
  let open Json in
  Alcotest.(check bool) "null" true (of_string "null" = Null);
  Alcotest.(check bool) "bools" true
    (of_string " true " = Bool true && of_string "false" = Bool false);
  Alcotest.(check bool) "negative exponent number" true
    (of_string "-1.25e2" = Num (-125.));
  Alcotest.(check bool) "string escapes" true
    (of_string {|"a\"b\\c\n\tA"|} = Str "a\"b\\c\n\tA");
  Alcotest.(check bool) "nested" true
    (of_string {|{"xs": [1, {"y": "z"}], "e": {}}|}
    = Obj [ ("xs", List [ Num 1.; Obj [ ("y", Str "z") ] ]); ("e", Obj []) ])

let test_json_parser_rejects_garbage () =
  List.iter
    (fun bad ->
      Alcotest.(check bool) (Printf.sprintf "rejects %S" bad) true
        (match Json.of_string bad with
        | exception Json.Parse_error _ -> true
        | _ -> false))
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"unterminated"; "1 2"; "{\"a\":}" ]

let test_json_printer_round_trips_floats () =
  let open Json in
  List.iter
    (fun x ->
      match of_string (to_string (Num x)) with
      | Num y -> Alcotest.(check (float 0.)) (Printf.sprintf "%h" x) x y
      | _ -> Alcotest.fail "not a number")
    [ 0.; 1.; -1.; 0.1; 1. /. 3.; 1e-300; 6.02214076e23 ];
  (* non-finite numbers degrade to null rather than emit invalid JSON *)
  Alcotest.(check bool) "nan -> null" true (of_string (to_string (Num Float.nan)) = Null);
  Alcotest.(check bool) "inf -> null" true
    (of_string (to_string (Num Float.infinity)) = Null)

(* The number rule as two Printf conversions and a read-back, the
   way the printers stated it before they called the formatting
   primitive directly: the literals must not change by one byte. *)
let printf_literal x =
  if Float.is_nan x || Float.abs x = infinity then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    let long = Printf.sprintf "%.17g" x in
    let short = Printf.sprintf "%.12g" x in
    if float_of_string short = x then short else long

(* Any bit pattern (every exponent, subnormals, NaN and infinities),
   integers on both sides of the 1e15 cut, short decimals, and the
   edge values. *)
let gen_double =
  let open QCheck2.Gen in
  oneof
    [
      map Int64.float_of_bits int64;
      map float_of_int (int_range (-2_000_000_000_000_000) 2_000_000_000_000_000);
      map float_of_int (int_range (-1000) 1000);
      map2 (fun k e -> float_of_int k *. (10. ** float_of_int e)) (int_range (-99999) 99999)
        (int_range (-320) 308);
      map2 Float.ldexp (float_range 0.5 1.) (int_range (-1074) 1024);
      oneofl
        [
          0.; -0.; Float.max_float; -.Float.max_float; Float.min_float; -.Float.min_float;
          4.9e-324; -4.9e-324; Float.epsilon; 1e15; 1e15 -. 1.; -1e15; 1e15 +. 0.5;
          0.1; 1. /. 3.; Float.nan; Float.infinity; Float.neg_infinity;
        ];
    ]

let qcheck_number_literal_is_printf =
  QCheck2.Test.make ~name:"number literals = the Printf rule, byte for byte" ~count:2000
    ~print:(Printf.sprintf "%h") gen_double (fun x ->
      let expected = printf_literal x in
      String.equal (Json.number_literal x) expected
      && String.equal (Json.to_compact_string (Json.Num x)) expected
      && String.equal (Json.to_string (Json.List [ Json.Num x ])) ("[\n  " ^ expected ^ "\n]"))

(* A [Lit] node is written as it is, in both printers. *)
let test_json_lit_written_as_is () =
  let x = 0.96086956521739086 in
  let lit = Json.Lit (Json.number_literal x) in
  Alcotest.(check string) "compact" (Json.to_compact_string (Json.Num x)) (Json.to_compact_string lit);
  Alcotest.(check string) "pretty"
    (Json.to_string (Json.Obj [ ("x", Json.Num x) ]))
    (Json.to_string (Json.Obj [ ("x", lit) ]))

let suite =
  ( "obs",
    [
      Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
      Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
      Alcotest.test_case "timer accumulates (fake clock)" `Quick
        test_timer_accumulates_fake_clock;
      Alcotest.test_case "timer records on exception" `Quick
        test_timer_records_on_exception;
      Alcotest.test_case "timer clamps backward clock" `Quick
        test_timer_clamps_backward_clock;
      Alcotest.test_case "span nesting aggregates by path" `Quick
        test_span_nesting_aggregates_by_path;
      Alcotest.test_case "snapshot omits idle, sorts" `Quick
        test_snapshot_omits_idle_and_sorts;
      Alcotest.test_case "JSON round-trip" `Quick test_json_round_trip;
      Alcotest.test_case "text rendering" `Quick test_render_text_mentions_everything;
      Alcotest.test_case "pp_duration units" `Quick test_pp_duration_units;
      Alcotest.test_case "counter hammer (4 domains)" `Quick test_counter_hammer;
      Alcotest.test_case "timer hammer (4 domains)" `Quick test_timer_hammer;
      Alcotest.test_case "span stacks are per-domain" `Quick
        test_span_stacks_are_per_domain;
      Alcotest.test_case "JSON parser values" `Quick test_json_parser_values;
      Alcotest.test_case "JSON parser rejects garbage" `Quick
        test_json_parser_rejects_garbage;
      Alcotest.test_case "JSON float round-trip" `Quick
        test_json_printer_round_trips_floats;
      QCheck_alcotest.to_alcotest qcheck_number_literal_is_printf;
      Alcotest.test_case "JSON literal nodes written as is" `Quick test_json_lit_written_as_is;
    ] )
