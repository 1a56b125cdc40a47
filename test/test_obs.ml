(* Tests for the telemetry layer (Es_obs): counter/timer/span
   semantics under a fake clock, disabled-mode no-ops, snapshot
   filtering, and the JSON round-trip used by the bench baseline.

   Obs state is process-global and shared with the instrumented
   solver libraries, so every test starts from [reset] and restores
   the disabled state and the real clock on the way out. *)

(* The Obs hammer tests spawn raw domains on purpose: they validate the
   atomic counters and per-domain span stacks without the pool in the
   loop, so routing them through Es_par.Pool would defeat the test. *)
[@@@lint.allow "P004"]

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

(* The reader as it was before it stopped allocating per byte, kept
   as the reference: the same values (numbers to the bit) and the same
   error text at the same offset. *)
module Reference_reader = struct
  open Json

  exception Parse_error of string

  type cursor = { s : string; mutable pos : int }

  let fail cur msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))

  let peek cur = if cur.pos < String.length cur.s then Some cur.s.[cur.pos] else None

  let advance cur = cur.pos <- cur.pos + 1

  let skip_ws cur =
    let rec go () =
      match peek cur with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance cur;
        go ()
      | _ -> ()
    in
    go ()

  let expect cur c =
    match peek cur with
    | Some c' when c' = c -> advance cur
    | _ -> fail cur (Printf.sprintf "expected '%c'" c)

  let literal cur word value =
    let n = String.length word in
    if
      cur.pos + n <= String.length cur.s
      && String.sub cur.s cur.pos n = word
    then begin
      cur.pos <- cur.pos + n;
      value
    end
    else fail cur (Printf.sprintf "expected %s" word)

  let parse_string cur =
    expect cur '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek cur with
      | None -> fail cur "unterminated string"
      | Some '"' ->
        advance cur;
        Buffer.contents buf
      | Some '\\' ->
        advance cur;
        (match peek cur with
        | Some '"' -> Buffer.add_char buf '"'
        | Some '\\' -> Buffer.add_char buf '\\'
        | Some '/' -> Buffer.add_char buf '/'
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some 'r' -> Buffer.add_char buf '\r'
        | Some 't' -> Buffer.add_char buf '\t'
        | Some 'b' -> Buffer.add_char buf '\b'
        | Some 'f' -> Buffer.add_char buf '\012'
        | Some 'u' ->
          (* decode \uXXXX; non-ASCII code points are emitted raw as a
             single byte when < 256, else replaced — our own output never
             produces them *)
          if cur.pos + 4 >= String.length cur.s then fail cur "bad \\u escape";
          let hex = String.sub cur.s (cur.pos + 1) 4 in
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code when code < 256 -> Buffer.add_char buf (Char.chr code)
          | Some _ -> Buffer.add_char buf '?'
          | None -> fail cur "bad \\u escape");
          cur.pos <- cur.pos + 4
        | _ -> fail cur "bad escape");
        advance cur;
        go ()
      | Some c ->
        advance cur;
        Buffer.add_char buf c;
        go ()
    in
    go ()

  let parse_number cur =
    let start = cur.pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek cur with Some c -> is_num_char c | None -> false) do
      advance cur
    done;
    let text = String.sub cur.s start (cur.pos - start) in
    match float_of_string_opt text with
    | Some x -> Num x
    | None -> fail cur "bad number"

  let rec parse_value cur =
    skip_ws cur;
    match peek cur with
    | None -> fail cur "unexpected end of input"
    | Some 'n' -> literal cur "null" Null
    | Some 't' -> literal cur "true" (Bool true)
    | Some 'f' -> literal cur "false" (Bool false)
    | Some '"' -> Str (parse_string cur)
    | Some '[' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some ']' then begin
        advance cur;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value cur in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
            advance cur;
            items (v :: acc)
          | Some ']' ->
            advance cur;
            List.rev (v :: acc)
          | _ -> fail cur "expected ',' or ']'"
        in
        List (items [])
      end
    | Some '{' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some '}' then begin
        advance cur;
        Obj []
      end
      else begin
        let field () =
          skip_ws cur;
          let name = parse_string cur in
          skip_ws cur;
          expect cur ':';
          (name, parse_value cur)
        in
        let rec fields acc =
          let f = field () in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
            advance cur;
            fields (f :: acc)
          | Some '}' ->
            advance cur;
            List.rev (f :: acc)
          | _ -> fail cur "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some _ -> parse_number cur

  let of_string s =
    let cur = { s; pos = 0 } in
    let v = parse_value cur in
    skip_ws cur;
    if cur.pos <> String.length s then fail cur "trailing garbage";
    v
end

let rec same_json a b =
  match (a, b) with
  | Json.Num x, Json.Num y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> Bool.equal x y
  | Json.Str x, Json.Str y | Json.Lit x, Json.Lit y -> String.equal x y
  | Json.List xs, Json.List ys -> List.equal same_json xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.equal (fun (k, v) (k', v') -> String.equal k k' && same_json v v') xs ys
  | (Json.Num _ | Json.Null | Json.Bool _ | Json.Str _ | Json.Lit _ | Json.List _ | Json.Obj _), _
    -> false

let same_reading text =
  match
    ( (match Json.of_string text with v -> Ok v | exception Json.Parse_error m -> Error m),
      match Reference_reader.of_string text with
      | v -> Ok v
      | exception Reference_reader.Parse_error m -> Error m )
  with
  | Ok a, Ok b -> same_json a b
  | Error a, Error b -> String.equal a b
  | Ok _, Error _ | Error _, Ok _ -> false

(* Trees of every node kind, numbers of any bit pattern and strings
   with every character the writers escape. *)
let gen_tree =
  let open QCheck2.Gen in
  let str =
    string_size
      ~gen:
        (oneof
           [ printable; oneofl [ '"'; '\\'; '/'; '\n'; '\r'; '\t'; '\001'; '\031'; '\xe9' ] ])
      (int_bound 10)
  in
  let leaf =
    oneof
      [
        pure Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun x -> Json.Num x) gen_double;
        map (fun s -> Json.Str s) str;
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [
            (3, leaf);
            (1, map (fun xs -> Json.List xs) (list_size (int_bound 5) (self (depth - 1))));
            ( 1,
              map (fun fs -> Json.Obj fs) (list_size (int_bound 5) (pair str (self (depth - 1))))
            );
          ])
    4

(* Tasks 0 .. n-1 dealt round-robin to [procs] processors, as mapping
   rows of task ids *)
let round_robin ~procs n =
  List.init procs (fun q ->
      Json.List
        (List.filter_map
           (fun t -> if t mod procs = q then Some (Json.Num (float_of_int t)) else None)
           (List.init n Fun.id)))

(* Request lines of the wire protocol, as a client might write them:
   weights, edges (repeats and out-of-range ends included), a mapping,
   every speed model, an optional reliability block. *)
let gen_request =
  let open QCheck2.Gen in
  let num x = Json.Num x and int k = Json.Num (float_of_int k) in
  let* n = int_range 1 20 in
  let* weights = list_repeat n (oneof [ float_range 0.1 5.; map float_of_int (int_range 1 9) ]) in
  let* edges = list_size (int_bound (2 * n)) (pair (int_bound n) (int_bound (n - 1))) in
  let* procs = int_range 1 4 and* with_mapping = bool and* with_rel = bool in
  let* kind = oneofl [ "continuous"; "discrete"; "vdd"; "incremental" ] in
  let* levels = list_size (int_range 1 6) (float_range 0.1 3.) in
  let* deadline = float_range 0.5 100. and* id = int_bound 100_000 in
  let model =
    match kind with
    | "continuous" -> [ ("fmin", num 0.1); ("fmax", num 5.) ]
    | "incremental" -> [ ("fmin", num 0.2); ("fmax", num 2.); ("delta", num 0.2) ]
    | _ -> [ ("levels", Json.List (List.map num levels)) ]
  in
  let fields =
    [
      ("id", int id);
      ("tasks", Json.List (List.map num weights));
      ("edges", Json.List (List.map (fun (a, b) -> Json.List [ int a; int b ]) edges));
      ("procs", int procs);
    ]
    @ (if with_mapping then [ ("mapping", Json.List (round_robin ~procs n)) ] else [])
    @ [ ("model", Json.Obj (("kind", Json.Str kind) :: model)); ("deadline", num deadline) ]
    @ if with_rel then [ ("rel", Json.Obj [ ("lambda0", num 1e-5); ("frel", num 0.8) ]) ] else []
  in
  let* pretty = bool in
  pure ((if pretty then Json.to_string else Json.to_compact_string) (Json.Obj fields))

(* Number tokens the fast path must tell apart: signs, leading zeros,
   15 and 16 digits, exponents, a lone point or minus. *)
let number_tokens =
  [
    "-0"; "0"; "00"; "-00"; "007"; "-007"; "123456789012345"; "999999999999999";
    "-999999999999999"; "1234567890123456"; "-1234567890123456"; "9007199254740993";
    "1e999"; "-1e999"; "+1"; "1."; "-"; ".5"; "-.5"; "1e5"; "1E-5"; "1-2"; "--1"; "e5"; "0.1";
  ]

let gen_number_text =
  let open QCheck2.Gen in
  let* tok =
    oneof
      [
        oneofl number_tokens;
        string_size ~gen:(oneofl (List.of_seq (String.to_seq "0123456789-+.eE"))) (int_bound 18);
      ]
  in
  oneofl [ tok; "[" ^ tok ^ "]"; "[1," ^ tok ^ " ]"; "{\"x\":" ^ tok ^ "}"; " " ^ tok ^ "\n" ]

let insert s i piece = String.sub s 0 i ^ piece ^ String.sub s i (String.length s - i)

(* One byte flipped, a prefix kept, whitespace or an escape inserted *)
let gen_mutation s =
  let open QCheck2.Gen in
  let n = String.length s in
  oneof
    [
      (let* i = int_bound (max 0 (n - 1))
       and* c =
         oneof [ char; oneofl (List.of_seq (String.to_seq "[]{}\",:\\ 0123456789-+.eEtrufalsn")) ]
       in
       pure (String.mapi (fun k x -> if k = i then c else x) s));
      map (fun k -> String.sub s 0 k) (int_bound n);
      (let* i = int_bound n and* w = oneofl [ " "; "\t"; "\n"; "\r"; " \r\n\t" ] in
       pure (insert s i w));
      (let* i = int_bound n
       and* e =
         oneofl
           [ {|\"|}; {|\\|}; {|\/|}; {|\n|}; {|\b|}; {|\f|}; {|\t|}; {|\u00e9|}; {|\u0041|};
             {|\u12|}; {|\u00_1|}; {|\uzzzz|}; {|\u12345|}; {|\x|}; {|\|} ]
       in
       pure (insert s i e));
    ]

let gen_reader_input =
  let open QCheck2.Gen in
  let text =
    oneof
      [
        map Json.to_string gen_tree;
        map Json.to_compact_string gen_tree;
        gen_request;
        gen_number_text;
      ]
  in
  let* s = text and* mutations = int_bound 3 in
  let rec apply k s = if k = 0 then pure s else gen_mutation s >>= apply (k - 1) in
  apply mutations s

let qcheck_reader_is_reference =
  QCheck2.Test.make ~name:"reader = the reference reader, values to the bit and errors" ~count:3000
    ~print:(Printf.sprintf "%S") gen_reader_input same_reading

let test_reader_tokens () =
  List.iter
    (fun tok ->
      List.iter
        (fun text -> Alcotest.(check bool) (Printf.sprintf "%S" text) true (same_reading text))
        [ tok; "[" ^ tok ^ "]"; "{\"a\":" ^ tok ^ "}" ])
    number_tokens;
  (match Json.of_string "-0" with
  | Json.Num x -> Alcotest.(check bool) "-0 reads -0.0" true (Float.sign_bit x && x = 0.)
  | _ -> Alcotest.fail "-0 is a number")

(* 512 nested arrays read; one more is refused at its own bracket. *)
let test_reader_nesting_bound () =
  let nested k = String.make k '[' ^ String.make k ']' in
  Alcotest.(check bool) "512 levels read" true (same_reading (nested 512));
  Alcotest.(check string) "the 513th bracket"
    "nesting deeper than 512 at offset 512"
    (match Json.of_string (nested 513) with
    | _ -> "read"
    | exception Json.Parse_error m -> m);
  Alcotest.(check string) "objects count too"
    "nesting deeper than 512 at offset 2560"
    (match Json.of_string (String.concat "" (List.init 513 (fun _ -> "{\"a\":")) ^ "1") with
    | _ -> "read"
    | exception Json.Parse_error m -> m)

(* Words [f ()] allocates, net of the measurement's own.  A minor
   collection before each reading of the allocation counter makes it
   count the minor heap's words too. *)
let allocated_words f =
  let measure f =
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    f ();
    Gc.minor ();
    (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
  in
  measure f -. measure ignore

(* A request line of about 700 bytes, 20 tasks with full-width
   weights, 22 edges and a mapping on 3 processors, the size of an
   average serve-hot line.  The reader allocates the values it returns
   and the text of each unescaped string once (the reference reader,
   which boxes an option per byte and copies each number's text,
   takes 7.6 words per byte). *)
let test_reader_allocation () =
  let r = Es_util.Rng.create ~seed:3 in
  let n = 20 in
  let int k = Json.Num (float_of_int k) in
  let edges =
    List.init 22 (fun k -> Json.List [ int (k mod (n - 1)); int (1 + (k mod (n - 1))) ])
  in
  let line =
    Json.to_compact_string
      (Json.Obj
         [
           ("id", int 1234);
           ("tasks", Json.List (List.init n (fun _ -> Json.Num (Es_util.Rng.uniform_in r 0.5 3.))));
           ("edges", Json.List edges);
           ("mapping", Json.List (round_robin ~procs:3 n));
           ( "model",
             Json.Obj
               [ ("kind", Json.Str "continuous"); ("fmin", Json.Num 0.1); ("fmax", Json.Num 5.) ] );
           ("deadline", Json.Num (Es_util.Rng.uniform_in r 10. 40.));
         ])
  in
  let words = allocated_words (fun () -> ignore (Sys.opaque_identity (Json.of_string line))) in
  let per_byte = words /. float_of_int (String.length line) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for %d bytes (%.2f per byte) <= 3 per byte" words
       (String.length line) per_byte)
    true (per_byte <= 3.)

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
      QCheck_alcotest.to_alcotest qcheck_reader_is_reference;
      Alcotest.test_case "reader number tokens = the reference reader" `Quick test_reader_tokens;
      Alcotest.test_case "reader nesting bound" `Quick test_reader_nesting_bound;
      Alcotest.test_case "reader allocates <= 3 words per byte" `Quick test_reader_allocation;
    ] )
