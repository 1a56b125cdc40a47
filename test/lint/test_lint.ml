(* Tests for the static-analysis subsystem (Es_analysis): each rule of
   the catalogue fires on its fixture, clean code is silent, and
   [@lint.allow] attributes suppress exactly the rules they name.
   Fixtures live in test/fixtures/lint and are declared as test deps,
   so paths are relative to the test's working directory. *)

module Lint = Es_analysis.Lint
module Rules = Es_analysis.Rules

let fixture name = Filename.concat "../fixtures/lint" name

let lint ?(rules = Rules.all) name =
  let diags, errors = Lint.lint_paths { Lint.rules } [ fixture name ] in
  List.iter (fun e -> Alcotest.failf "lint_paths %s: %s" name e) errors;
  diags

(* Lint in-memory sources as one run; per-file errors fail the test. *)
let lint_sources ?(rules = Rules.all) sources =
  let diags, errors = Lint.lint_sources { Lint.rules } sources in
  List.iter (fun e -> Alcotest.failf "lint_sources: %s" e) errors;
  diags

let lint_string ?rules ~file src = lint_sources ?rules [ (file, src) ]

(* The per-file errors of an in-memory run. *)
let errors_of ~file src =
  snd (Lint.lint_sources Lint.default_config [ (file, src) ])

let rule_ids diags =
  List.map (fun (d : Lint.diagnostic) -> Rules.id d.rule) diags

let check_ids = Alcotest.(check (list string))

(* ------------------------------------------------------------------ *)
(* every rule triggers on its fixture                                  *)
(* ------------------------------------------------------------------ *)

let trigger_fixtures =
  [
    (Rules.E001, "e001_poly_compare.ml", 3);
    (Rules.E002, "e002_partial.ml", 5);
    (Rules.E003, "e003_catchall.ml", 2);
    (Rules.E004, "e004/lib/printy.ml", 2);
    (Rules.E005, "e005/lib/nomli.ml", 1);
    (* a test runner is an executable: no interface owed *)
    (Rules.E005, "e005/test/runner.ml", 0);
    (Rules.E006, "e006_unsafe.ml", 3);
    (Rules.E007, "e007/lib/core/mutstate.ml", 3);
  ]

let test_each_rule_triggers () =
  List.iter
    (fun (rule, name, expected) ->
      let diags = lint name in
      check_ids
        (Printf.sprintf "%s findings in %s" (Rules.id rule) name)
        (List.init expected (fun _ -> Rules.id rule))
        (rule_ids diags))
    trigger_fixtures

let test_exact_diagnostic () =
  match lint "e001_poly_compare.ml" with
  | d :: _ ->
    Alcotest.(check string)
      "first finding rendered exactly"
      "../fixtures/lint/e001_poly_compare.ml:2:23 [E001] polymorphic \
       structural operation compare; use a typed comparator \
       (Float.compare, Int.compare, String.compare, List.compare, ...)"
      (Lint.to_string d)
  | [] -> Alcotest.fail "expected findings in e001 fixture"

let test_clean_is_silent () =
  check_ids "clean fixture" [] (rule_ids (lint "clean.ml"))

(* ------------------------------------------------------------------ *)
(* suppression                                                         *)
(* ------------------------------------------------------------------ *)

let test_suppressed_is_silent () =
  check_ids "suppressed fixture" [] (rule_ids (lint "suppressed.ml"))

let test_suppression_is_rule_specific () =
  (* [@lint.allow "E001"] wraps an expression containing both an E001
     and an E002: only the named rule may be silenced. *)
  let diags = lint "mixed_suppressed.ml" in
  check_ids "only E002 survives" [ "E002" ] (rule_ids diags)

let test_file_wide_suppression_is_rule_specific () =
  let src = "[@@@lint.allow \"E006\"]\nlet x : int = Obj.magic (List.hd [])\n" in
  check_ids "E002 survives file-wide E006" [ "E002" ]
    (rule_ids (lint_string ~file:"wide.ml" src));
  (* E005 is a finding like any other: a floating attribute covers it *)
  check_ids "a library module's missing .mli, suppressed" []
    (rule_ids
       (lint_string ~file:"lib/gen/wide.ml" "[@@@lint.allow \"E005\"]\nlet x = 1\n"))

let test_malformed_allow_payload_is_an_error () =
  let src = "let x = (compare 1 2) [@lint.allow]\n" in
  match errors_of ~file:"bad.ml" src with
  | [] -> Alcotest.fail "malformed [@lint.allow] must be rejected"
  | msg :: _ ->
    Alcotest.(check bool) "error mentions the attribute" true
      (Astring.String.is_infix ~affix:"lint.allow" msg)

(* ------------------------------------------------------------------ *)
(* rule toggling                                                       *)
(* ------------------------------------------------------------------ *)

let test_rules_are_toggleable () =
  let diags = lint ~rules:[ Rules.E002 ] "e001_poly_compare.ml" in
  check_ids "E001 off: nothing fires" [] (rule_ids diags);
  let diags = lint ~rules:[ Rules.E001 ] "mixed_suppressed.ml" in
  check_ids "E002 off and E001 suppressed" [] (rule_ids diags)

let test_e004_only_applies_to_lib_paths () =
  let src = "let main () = print_string \"cli output is fine\"\n" in
  check_ids "no E004 outside lib/" []
    (rule_ids (lint_string ~file:"bin/tool.ml" src));
  check_ids "test runners keep the library's bar" [ "E004" ]
    (rule_ids (lint_string ~file:"test/runner.ml" src))

let test_e007_scoped_to_domain_libs () =
  let src = "let total = ref 0\ntype t = { mutable n : int }\n" in
  (* lib/obs and lib/util are not domain-shared scope; bin owns its CLI
     state.  Restrict to E007 so the missing-.mli rule stays out of the
     way. *)
  List.iter
    (fun file ->
      check_ids
        (Printf.sprintf "no E007 in %s" file)
        []
        (rule_ids (lint_string ~rules:[ Rules.E007 ] ~file src)))
    [ "lib/obs/counters.ml"; "lib/util/pool.ml"; "bin/sweep.ml" ];
  check_ids "E007 fires on a domain-shared path"
    [ "E007"; "E007" ]
    (rule_ids (lint_string ~rules:[ Rules.E007 ] ~file:"lib/sim/state.ml" src))

let test_e007_exempts_domain_safe_creators () =
  (* top-level Atomic/Mutex/Condition are mutable on purpose — they
     exist to be shared across domains; the fixture pins their silence *)
  check_ids "sync primitives exempt" []
    (rule_ids (lint ~rules:[ Rules.E007 ] "e007/lib/core/atomics.ml"))

let test_e007_factories_and_locals_ok () =
  let src =
    "let make () = ref 0\n\
     let table n = Hashtbl.create n\n\
     let count xs =\n\
    \  let acc = ref 0 in\n\
    \  List.iter (fun _ -> incr acc) xs;\n\
    \  !acc\n"
  in
  check_ids "per-call and function-local allocation is fine" []
    (rule_ids (lint_string ~rules:[ Rules.E007 ] ~file:"lib/sched/factory.ml" src))

(* ------------------------------------------------------------------ *)
(* dimensional analysis: the U rules                                   *)
(* ------------------------------------------------------------------ *)

let test_u001_triggers () =
  check_ids "three mixed-unit contexts" [ "U001"; "U001"; "U001" ]
    (rule_ids (lint "u001_mismatch.ml"))

let test_u001_suppressed () =
  check_ids "[@lint.allow \"U001\"] silences the site" []
    (rule_ids (lint "u001_suppressed.ml"))

let test_u002_interprocedural () =
  (* pass 1 reads metrics.mli; the bad call site and the bad record
     construction live in a different file of the same directory *)
  let diags = lint ~rules:[ Rules.U002 ] "u002" in
  check_ids "call site and record field" [ "U002"; "U002" ] (rule_ids diags);
  List.iter
    (fun (d : Lint.diagnostic) ->
      Alcotest.(check bool) "reported in the using file" true
        (Astring.String.is_suffix ~affix:"use.ml" d.file))
    diags

let test_u003_scope_and_suppression () =
  (* one unannotated public float fires; the annotated and the
     [@@lint.allow]-suppressed declarations stay silent *)
  check_ids "exactly the bare float" [ "U003" ]
    (rule_ids (lint "u003"))

let test_u003_only_in_core_interfaces () =
  let src = "val helper : float\n" in
  check_ids "no U003 outside lib/core|lib/platform" []
    (rule_ids (lint_string ~file:"lib/dag/helper.mli" src))

let test_exported_result_checked () =
  (* interprocedural return units: an exported function whose body
     disagrees with its own .mli annotation is a U002 *)
  let mli = fixture "u002/metrics.mli" in
  let mli_src = In_channel.with_open_text mli In_channel.input_all in
  let src = "let cost ~w ~f = w /. f\n" in
  check_ids "body units vs signature" [ "U002" ]
    (rule_ids
       (lint_sources [ (mli, mli_src); (fixture "u002/metrics.ml", src) ]))

let test_malformed_units_payload_is_an_error () =
  let src = "val x : (float[@units \"furlong\"])\n" in
  match errors_of ~file:"lib/core/x.mli" src with
  | [] -> Alcotest.fail "unknown unit name must be rejected"
  | msg :: _ ->
    Alcotest.(check bool) "error names the bad unit" true
      (Astring.String.is_infix ~affix:"furlong" msg)

(* ------------------------------------------------------------------ *)
(* parallel safety: the P rules                                        *)
(* ------------------------------------------------------------------ *)

let messages diags = List.map (fun (d : Lint.diagnostic) -> d.Lint.message) diags
let infix affix s = Astring.String.is_infix ~affix s

let test_p001_cross_module_witness () =
  (* the Hashtbl write lives in counter.ml, the region in worker.ml:
     pass 1 builds the graph over the directory and the finding is
     anchored at the region with the full call chain in the message *)
  let diags = lint ~rules:[ Rules.P001 ] "p001" in
  check_ids "captured ref + captured Hashtbl" [ "P001"; "P001" ]
    (rule_ids diags);
  List.iter
    (fun (d : Lint.diagnostic) ->
      Alcotest.(check bool) "anchored at the region file" true
        (Astring.String.is_suffix ~affix:"worker.ml" d.file))
    diags;
  Alcotest.(check bool) "witness chain crosses into counter.ml" true
    (List.exists
       (fun m ->
         infix "witness: region@" m
         && infix "Counter.memo@" m
         && infix "Hashtbl.replace hits@" m
         && infix "counter.ml" m)
       (messages diags))

let test_p002_triggers_and_suppression () =
  (* seeds.ml fires; seeds_quiet.ml carries [@lint.allow "P002"] on
     the region expression and must stay silent *)
  let diags = lint ~rules:[ Rules.P002 ] "p002" in
  check_ids "only the unsuppressed region" [ "P002" ] (rule_ids diags);
  Alcotest.(check bool) "names Random.float" true
    (List.exists (infix "Random.float") (messages diags))

let test_p003_blocking () =
  let diags = lint ~rules:[ Rules.P003 ] "p003/block.ml" in
  check_ids "captured lock + sleep" [ "P003"; "P003" ] (rule_ids diags)

let test_p004_domain_ownership () =
  let diags = lint ~rules:[ Rules.P004 ] "p004/spawn.ml" in
  check_ids "spawn and join" [ "P004"; "P004" ] (rule_ids diags)

let test_p_rules_toggle_off () =
  (* with the Rules.par family skipped, the raciest fixture of the set
     is silent *)
  let rules =
    List.filter (fun r -> not (List.mem r Rules.par)) Rules.all
  in
  check_ids "no P findings with the family off" []
    (rule_ids
       (List.filter
          (fun (d : Lint.diagnostic) -> List.mem d.Lint.rule Rules.par)
          (lint ~rules "p001")))

(* The lock and telemetry protocols share one checker: a missing
   unlock, and a release in the acquiring statement itself behind a
   raising step, for each protocol. *)
let test_sequence_protocols () =
  let src =
    "let m = Mutex.create ()\n\
     let step x = if x < 0 then failwith \"neg\" else x\n\
     let held x = Mutex.lock m; ignore (step x)\n\
     let inline x = ignore x; (Mutex.lock m; ignore (step x); Mutex.unlock m); ()\n\
     let toggled x = ignore x; (Obs.enable (); ignore (step x); Obs.disable ()); ()\n"
  in
  Alcotest.(check (list string))
    "one finding per protocol path"
    [
      "locks.ml:3:13 [R001] Mutex.lock 'm' has no matching unlock in the \
       rest of this statement sequence; the raising (or early-return) path \
       leaves it held — use Mutex.protect";
      "locks.ml:4:26 [R002] code between Mutex.lock 'm' and its unprotected \
       unlock may raise Failure; use Mutex.protect so the unlock runs on the \
       raising path";
      "locks.ml:5:27 [R003] code between Obs.enable and its unprotected \
       Obs.disable may raise Failure; move the disable into a Fun.protect \
       ~finally so the raising path restores the toggle";
    ]
    (List.map Lint.to_string
       (lint_string ~rules:Rules.effects ~file:"locks.ml" src))

let lock_helper =
  "let m = Mutex.create ()\n\
   let note x = Mutex.lock m; ignore x; Mutex.unlock m\n"

(* P003 over a region at [region_file] calling [helper_mod.note], with
   the in-memory [helpers] (file, source) linted in the same run. *)
let lint_with_helper ~helpers ~helper_mod ~region_file =
  let region_src =
    Printf.sprintf
      "let run pool xs =\n\
      \  Es_par.Par.parallel_map ~pool (fun x -> %s.note x; x) xs\n"
      helper_mod
  in
  lint_sources ~rules:[ Rules.P003 ] (helpers @ [ (region_file, region_src) ])

let test_par_sanctioned_owner_is_terminal () =
  (* a helper under lib/obs may hold locks — reachability must stop at
     the sanctioned owner instead of flagging its internals ... *)
  check_ids "lock inside lib/obs not reported through the region" []
    (rule_ids
       (lint_with_helper
          ~helpers:[ ("lib/obs/obs_helper.ml", lock_helper) ]
          ~helper_mod:"Obs_helper" ~region_file:"lib/sim/sweep.ml"));
  (* ... while the identical helper anywhere else is a real P003 *)
  check_ids "same lock outside the owners is reported" [ "P003" ]
    (rule_ids
       (lint_with_helper ~helpers:[ ("lib/util/helper.ml", lock_helper) ]
          ~helper_mod:"Helper" ~region_file:"lib/sim/sweep.ml"))

let test_par_shared_module_name_not_sanctioned () =
  (* one module name defined in lib/obs AND lib/core: the node is not
     sanctioned as a whole, so the lib/core definition's lock is still
     reached — one sanctioned definition must not hide the other *)
  check_ids "lock in the lib/core twin is reported" [ "P003" ]
    (rule_ids
       (lint_with_helper
          ~helpers:
            [
              ("lib/obs/helper.ml", "let note x = ignore x\n");
              ("lib/core/helper.ml", lock_helper);
            ]
          ~helper_mod:"Helper" ~region_file:"lib/sim/sweep.ml"));
  (* conversely, the lib/obs twin's body is not walked out of: a lock
     reached only through its callee stays silent *)
  check_ids "lock behind the lib/obs twin is not reported" []
    (rule_ids
       (lint_with_helper
          ~helpers:
            [
              ("lib/util/lockbox.ml",
               "let m = Mutex.create ()\n\
                let take x = Mutex.lock m; ignore x; Mutex.unlock m\n");
              ("lib/obs/helper.ml", "let note x = Lockbox.take x\n");
              ("lib/core/helper.ml", "let note x = ignore x\n");
            ]
          ~helper_mod:"Helper" ~region_file:"lib/sim/sweep.ml"))

let test_e005_sees_interface_in_the_run () =
  let ml = ("lib/util/meter.ml", "let v = 1\n") in
  check_ids "missing interface reported" [ "E005" ]
    (rule_ids (lint_sources ~rules:[ Rules.E005 ] [ ml ]));
  check_ids "interface among the sources" []
    (rule_ids
       (lint_sources ~rules:[ Rules.E005 ]
          [ ml; ("lib/util/meter.mli", "val v : int\n") ]))

(* ------------------------------------------------------------------ *)
(* the unit algebra: laws of the abelian group                         *)
(* ------------------------------------------------------------------ *)

module Units = Es_analysis.Units

let arb_unit =
  let gen =
    QCheck.Gen.(
      map3
        (fun a b c ->
          Units.(mul (pow work a) (mul (pow freq b) (pow prob c))))
        (int_range (-2) 2) (int_range (-2) 2) (int_range (-2) 2))
  in
  QCheck.make ~print:Units.to_string gen

let qtest name arb law =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name arb law)

let algebra_properties =
  [
    qtest "mul commutes" (QCheck.pair arb_unit arb_unit) (fun (a, b) ->
        Units.(equal (mul a b) (mul b a)));
    qtest "mul associates" (QCheck.triple arb_unit arb_unit arb_unit)
      (fun (a, b, c) -> Units.(equal (mul (mul a b) c) (mul a (mul b c))));
    qtest "dimensionless is neutral" arb_unit (fun a ->
        Units.(equal (mul a dimensionless) a));
    qtest "inverse cancels" arb_unit (fun a ->
        Units.(equal (mul a (inv a)) dimensionless));
    qtest "div is mul-inverse" (QCheck.pair arb_unit arb_unit) (fun (a, b) ->
        Units.(equal (div a b) (mul a (inv b))));
    qtest "pow adds exponents"
      (QCheck.triple arb_unit QCheck.(int_range (-3) 3) QCheck.(int_range (-3) 3))
      (fun (a, m, n) ->
        Units.(equal (pow a (m + n)) (mul (pow a m) (pow a n))));
    qtest "pow distributes over mul"
      (QCheck.triple arb_unit arb_unit QCheck.(int_range (-3) 3))
      (fun (a, b, n) ->
        Units.(equal (pow (mul a b) n) (mul (pow a n) (pow b n))));
    qtest "sqrt inverts squaring" arb_unit (fun a ->
        match Units.sqrt (Units.mul a a) with
        | Some r -> Units.equal r a
        | None -> false);
    qtest "printing round-trips" arb_unit (fun a ->
        match Units.parse (Units.to_string a) with
        | Ok a' -> Units.equal a' a
        | Error _ -> false);
  ]

let test_derived_aliases () =
  (* the catalogue identities the pass relies on: time = work/freq,
     energy = work·freq², power = freq³ = energy/time *)
  let check name a b = Alcotest.(check bool) name true (Units.equal a b) in
  check "time" Units.time Units.(div work freq);
  check "energy" Units.energy Units.(mul work (pow freq 2));
  check "power" Units.power Units.(pow freq 3);
  check "power = energy/time" Units.power Units.(div energy time);
  (match Units.parse "speed" with
  | Ok u -> check "speed aliases freq" u Units.freq
  | Error e -> Alcotest.fail e);
  match Units.parse "work^2/time" with
  | Ok u -> check "compound grammar" u Units.(div (pow work 2) time)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* catalogue                                                           *)
(* ------------------------------------------------------------------ *)

let test_rule_ids_round_trip () =
  List.iter
    (fun r ->
      match Rules.of_id (String.lowercase_ascii (Rules.id r)) with
      | Some r' -> Alcotest.(check string) "round trip" (Rules.id r) (Rules.id r')
      | None -> Alcotest.failf "of_id failed for %s" (Rules.id r))
    Rules.all;
  Alcotest.(check bool) "unknown id" true (Rules.of_id "E999" = None)

let suite =
  ( "lint",
    [
      Alcotest.test_case "every rule triggers on its fixture" `Quick
        test_each_rule_triggers;
      Alcotest.test_case "exact diagnostic text" `Quick test_exact_diagnostic;
      Alcotest.test_case "clean fixture is silent" `Quick test_clean_is_silent;
      Alcotest.test_case "suppressed fixture is silent" `Quick
        test_suppressed_is_silent;
      Alcotest.test_case "suppression is rule-specific" `Quick
        test_suppression_is_rule_specific;
      Alcotest.test_case "file-wide suppression is rule-specific" `Quick
        test_file_wide_suppression_is_rule_specific;
      Alcotest.test_case "malformed allow payload errors" `Quick
        test_malformed_allow_payload_is_an_error;
      Alcotest.test_case "rules toggle independently" `Quick
        test_rules_are_toggleable;
      Alcotest.test_case "E004 scoped to lib paths" `Quick
        test_e004_only_applies_to_lib_paths;
      Alcotest.test_case "E007 scoped to domain-shared libs" `Quick
        test_e007_scoped_to_domain_libs;
      Alcotest.test_case "E007 exempts domain-safe creators" `Quick
        test_e007_exempts_domain_safe_creators;
      Alcotest.test_case "E007 skips factories and locals" `Quick
        test_e007_factories_and_locals_ok;
      Alcotest.test_case "U001 triggers on mixed units" `Quick
        test_u001_triggers;
      Alcotest.test_case "U001 suppressible at the site" `Quick
        test_u001_suppressed;
      Alcotest.test_case "U002 checks annotated call sites" `Quick
        test_u002_interprocedural;
      Alcotest.test_case "U003 scope and suppression" `Quick
        test_u003_scope_and_suppression;
      Alcotest.test_case "U003 limited to core interfaces" `Quick
        test_u003_only_in_core_interfaces;
      Alcotest.test_case "exported result units checked" `Quick
        test_exported_result_checked;
      Alcotest.test_case "malformed units payload errors" `Quick
        test_malformed_units_payload_is_an_error;
      Alcotest.test_case "P001 cross-module witness chain" `Quick
        test_p001_cross_module_witness;
      Alcotest.test_case "P002 triggers and suppresses" `Quick
        test_p002_triggers_and_suppression;
      Alcotest.test_case "P003 flags blocking regions" `Quick
        test_p003_blocking;
      Alcotest.test_case "P004 flags raw Domain use" `Quick
        test_p004_domain_ownership;
      Alcotest.test_case "P family toggles off" `Quick test_p_rules_toggle_off;
      Alcotest.test_case "lock and telemetry protocols" `Quick
        test_sequence_protocols;
      Alcotest.test_case "sanctioned owners are terminal" `Quick
        test_par_sanctioned_owner_is_terminal;
      Alcotest.test_case "a module name shared with lib/obs stays analysed"
        `Quick test_par_shared_module_name_not_sanctioned;
      Alcotest.test_case "E005 sees an interface linted in the same run"
        `Quick test_e005_sees_interface_in_the_run;
      Alcotest.test_case "derived unit aliases" `Quick test_derived_aliases;
      Alcotest.test_case "rule ids round trip" `Quick test_rule_ids_round_trip;
    ] )

let () =
  Alcotest.run "energy_sched_lint"
    [ suite; ("units-algebra", algebra_properties) ]
