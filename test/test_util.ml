(* Tests for Es_util: RNG determinism and distributions, statistics,
   float helpers, table rendering. *)

module Rng = Es_util.Rng
module Stats = Es_util.Stats
module Futil = Es_util.Futil
module Table = Es_util.Table

let check_float = Alcotest.(check (float 1e-9))

let test_rng_determinism () =
  let a = Rng.create ~seed:123 and b = Rng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_int_range () =
  let r = Rng.create ~seed:5 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done

let test_rng_int_uniform () =
  let r = Rng.create ~seed:6 in
  let counts = Array.make 8 0 in
  let trials = 80_000 in
  for _ = 1 to trials do
    let v = Rng.int r 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      let freq = float_of_int c /. float_of_int trials in
      Alcotest.(check bool) "frequency near 1/8" true (Float.abs (freq -. 0.125) < 0.01))
    counts

let test_rng_float_range () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let v = Rng.uniform_in r 2. 5. in
    Alcotest.(check bool) "in [2,5)" true (v >= 2. && v < 5.)
  done

let test_rng_gaussian_moments () =
  let r = Rng.create ~seed:8 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian ~mu:3. ~sigma:2. r) in
  Alcotest.(check bool) "mean ~ 3" true (Float.abs (Stats.mean xs -. 3.) < 0.05);
  Alcotest.(check bool) "std ~ 2" true (Float.abs (Stats.stddev xs -. 2.) < 0.05)

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:9 in
  let xs = Array.init 50_000 (fun _ -> Rng.exponential r ~rate:4.) in
  Alcotest.(check bool) "mean ~ 1/4" true (Float.abs (Stats.mean xs -. 0.25) < 0.01)

let test_rng_bernoulli () =
  let r = Rng.create ~seed:10 in
  let hits = ref 0 in
  for _ = 1 to 50_000 do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let freq = float_of_int !hits /. 50_000. in
  Alcotest.(check bool) "p ~ 0.3" true (Float.abs (freq -. 0.3) < 0.02)

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:11 in
  let a = Array.init 20 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

(* The stream itself: a digest of seed 42's first 1,000 outputs, as
   decimal lines. *)
let test_rng_stream_pinned () =
  let r = Rng.create ~seed:42 in
  let b = Buffer.create 20_000 in
  for _ = 1 to 1000 do
    Buffer.add_string b (Int64.to_string (Rng.bits64 r));
    Buffer.add_char b '\n'
  done;
  Alcotest.(check string) "digest" "e1e9640bafcca84f37dad8338067d177"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* A draw boxes its result at most; the generator's state is stored
   unboxed. *)
let test_rng_bernoulli_allocation () =
  let r = Rng.create ~seed:1 in
  let draws = 100_000 and hits = ref 0 in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_words in
  for _ = 1 to draws do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let words = ((Gc.quick_stat ()).Gc.minor_words -. before) /. float_of_int draws in
  ignore (Sys.opaque_identity !hits);
  Alcotest.(check bool) (Printf.sprintf "%.1f minor words per draw <= 8" words) true (words <= 8.)

let test_rng_split_independent () =
  let r = Rng.create ~seed:12 in
  let a = Rng.split r in
  let b = Rng.split r in
  Alcotest.(check bool) "split streams differ" true (Rng.bits64 a <> Rng.bits64 b)

let test_stats_mean_var () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "mean" 3. (Stats.mean xs);
  check_float "variance" 2.5 (Stats.variance xs);
  check_float "median" 3. (Stats.median xs)

let test_stats_quantiles () =
  let xs = [| 4.; 1.; 3.; 2. |] in
  check_float "q0 = min" 1. (Stats.quantile xs 0.);
  check_float "q1 = max" 4. (Stats.quantile xs 1.);
  check_float "q0.5 interpolates" 2.5 (Stats.quantile xs 0.5)

let test_stats_quantile_nan_total_order () =
  (* regression: quantile once sorted with polymorphic [compare];
     [Float.compare] is the guaranteed total order, under which NaNs
     sort below every number — so upper quantiles of a NaN-polluted
     sample stay finite and deterministic *)
  let xs = [| 2.; Float.nan; 1.; 3. |] in
  check_float "max quantile skips the NaN" 3. (Stats.quantile xs 1.);
  Alcotest.(check bool) "min quantile is the NaN" true
    (Float.is_nan (Stats.quantile xs 0.));
  Alcotest.(check bool) "median finite and ordered" true
    (let m = Stats.quantile xs 0.5 in m >= 1. && m <= 2.)

let test_stats_quantile_signed_zero_and_negatives () =
  let xs = [| 0.; -1.; -0.; 1. |] in
  check_float "q0 = -1" (-1.) (Stats.quantile xs 0.);
  check_float "q1 = 1" 1. (Stats.quantile xs 1.);
  (* Float.compare puts -0. before 0.; interpolation across the two
     zeros must still give zero *)
  check_float "median across signed zeros" 0. (Stats.quantile xs 0.5)

let test_stats_geometric_mean () =
  check_float "gm(1,4) = 2" 2. (Stats.geometric_mean [| 1.; 4. |])

let test_stats_online () =
  let o = Stats.online_create () in
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  Array.iter (Stats.online_add o) xs;
  Alcotest.(check int) "count" 8 (Stats.online_count o);
  check_float "mean" (Stats.mean xs) (Stats.online_mean o);
  check_float "stddev" (Stats.stddev xs) (Stats.online_stddev o)

let test_futil_approx () =
  Alcotest.(check bool) "close" true (Futil.approx_equal 1.0 (1.0 +. 1e-12));
  Alcotest.(check bool) "far" false (Futil.approx_equal 1.0 1.1)

let test_futil_clamp () =
  check_float "below" 1. (Futil.clamp ~lo:1. ~hi:2. 0.);
  check_float "above" 2. (Futil.clamp ~lo:1. ~hi:2. 3.);
  check_float "inside" 1.5 (Futil.clamp ~lo:1. ~hi:2. 1.5)

let test_futil_kahan () =
  (* naive summation of 0.1 drifts; Kahan stays tight *)
  let xs = Array.make 1_000_000 0.1 in
  Alcotest.(check bool) "compensated" true (Float.abs (Futil.sum xs -. 100_000.) < 1e-6)

let test_futil_cbrt () =
  check_float "cbrt 27" 3. (Futil.cbrt 27.);
  check_float "cbrt -8" (-2.) (Futil.cbrt (-8.))

let test_table_render () =
  let t = Table.create ~columns:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1.5" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has header" true (String.length s > 0);
  Alcotest.(check bool) "contains rows" true
    (Astring.String.is_infix ~affix:"alpha" s && Astring.String.is_infix ~affix:"22" s)

let test_table_arity () =
  let t = Table.create ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "arity mismatch" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "only-one" ])

let qcheck_quantile_bounds =
  QCheck.Test.make ~name:"quantile between min and max" ~count:200
    QCheck.(pair (array_of_size Gen.(1 -- 30) (float_bound_exclusive 100.)) (float_bound_inclusive 1.))
    (fun (xs, q) ->
      QCheck.assume (Array.length xs > 0);
      let v = Stats.quantile xs q in
      v >= Stats.min xs -. 1e-9 && v <= Stats.max xs +. 1e-9)

let qcheck_clamp_idempotent =
  QCheck.Test.make ~name:"clamp is idempotent" ~count:500
    QCheck.(triple (float_range (-100.) 100.) (float_range (-100.) 100.) (float_range (-100.) 100.))
    (fun (a, b, x) ->
      let lo = Float.min a b and hi = Float.max a b in
      let once = Futil.clamp ~lo ~hi x in
      Futil.clamp ~lo ~hi once = once)

let suite =
  ( "util",
    [
      Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
      Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
      Alcotest.test_case "rng int range" `Quick test_rng_int_range;
      Alcotest.test_case "rng int uniform" `Quick test_rng_int_uniform;
      Alcotest.test_case "rng float range" `Quick test_rng_float_range;
      Alcotest.test_case "rng gaussian moments" `Quick test_rng_gaussian_moments;
      Alcotest.test_case "rng exponential mean" `Quick test_rng_exponential_mean;
      Alcotest.test_case "rng bernoulli" `Quick test_rng_bernoulli;
      Alcotest.test_case "rng shuffle permutation" `Quick test_rng_shuffle_permutation;
      Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
      Alcotest.test_case "rng stream pinned" `Quick test_rng_stream_pinned;
      Alcotest.test_case "rng bernoulli allocates <= 8 words" `Quick
        test_rng_bernoulli_allocation;
      Alcotest.test_case "stats mean/var/median" `Quick test_stats_mean_var;
      Alcotest.test_case "stats quantiles" `Quick test_stats_quantiles;
      Alcotest.test_case "stats quantile NaN total order" `Quick
        test_stats_quantile_nan_total_order;
      Alcotest.test_case "stats quantile signed zeros" `Quick
        test_stats_quantile_signed_zero_and_negatives;
      Alcotest.test_case "stats geometric mean" `Quick test_stats_geometric_mean;
      Alcotest.test_case "stats online accumulator" `Quick test_stats_online;
      Alcotest.test_case "futil approx_equal" `Quick test_futil_approx;
      Alcotest.test_case "futil clamp" `Quick test_futil_clamp;
      Alcotest.test_case "futil kahan sum" `Quick test_futil_kahan;
      Alcotest.test_case "futil cbrt" `Quick test_futil_cbrt;
      Alcotest.test_case "table render" `Quick test_table_render;
      Alcotest.test_case "table arity check" `Quick test_table_arity;
      QCheck_alcotest.to_alcotest qcheck_quantile_bounds;
      QCheck_alcotest.to_alcotest qcheck_clamp_idempotent;
    ] )
