(* Fixture: E005's scope — a test runner is an executable, so this
   module without an .mli gives no finding (e005/lib/nomli.ml does). *)
let cases = 0
