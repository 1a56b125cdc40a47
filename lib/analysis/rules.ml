(* The rule catalogue.  Every rule is independently toggleable from the
   driver; [of_id] is forgiving about case so "e001" works on the
   command line and in [@lint.allow] payloads. *)

type t =
  | E001
  | E002
  | E003
  | E004
  | E005
  | E006
  | E007
  | U001
  | U002
  | U003
  | P001
  | P002
  | P003
  | P004
  | X001
  | R001
  | R002
  | R003

let all =
  [ E001; E002; E003; E004; E005; E006; E007; U001; U002; U003; P001; P002; P003; P004; X001; R001; R002; R003 ]

let units = [ U001; U002; U003 ]
let par = [ P001; P002; P003; P004 ]
let effects = [ X001; R001; R002; R003 ]

let id = function
  | E001 -> "E001"
  | E002 -> "E002"
  | E003 -> "E003"
  | E004 -> "E004"
  | E005 -> "E005"
  | E006 -> "E006"
  | E007 -> "E007"
  | U001 -> "U001"
  | U002 -> "U002"
  | U003 -> "U003"
  | P001 -> "P001"
  | P002 -> "P002"
  | P003 -> "P003"
  | P004 -> "P004"
  | X001 -> "X001"
  | R001 -> "R001"
  | R002 -> "R002"
  | R003 -> "R003"

let of_id s =
  match String.uppercase_ascii (String.trim s) with
  | "E001" -> Some E001
  | "E002" -> Some E002
  | "E003" -> Some E003
  | "E004" -> Some E004
  | "E005" -> Some E005
  | "E006" -> Some E006
  | "E007" -> Some E007
  | "U001" -> Some U001
  | "U002" -> Some U002
  | "U003" -> Some U003
  | "P001" -> Some P001
  | "P002" -> Some P002
  | "P003" -> Some P003
  | "P004" -> Some P004
  | "X001" -> Some X001
  | "R001" -> Some R001
  | "R002" -> Some R002
  | "R003" -> Some R003
  | _ -> None

let describe = function
  | E001 ->
    "polymorphic structural comparison or hash (compare, Hashtbl.hash); \
     use a typed comparator: Float.compare, Int.compare, String.compare, \
     List.compare"
  | E002 ->
    "partial stdlib function (List.hd, List.tl, List.nth, List.find, \
     List.assoc, Option.get, Hashtbl.find, Float.of_string); use a total \
     match or the _opt variant"
  | E003 ->
    "catch-all exception handler (with _ -> ... / with e -> ()); match \
     the exceptions you expect and let the rest propagate"
  | E004 ->
    "direct printing from library code (print_string, Printf.printf); \
     return a string / use a Buffer, or annotate a render entry point \
     with [@lint.allow \"E004\"]"
  | E005 -> "library module without an .mli interface"
  | E006 -> "unsafe representation escape (Obj.magic, Marshal)"
  | E007 ->
    "module-level mutable state (ref, Hashtbl/Queue/Stack/Buffer created \
     at top level, mutable record field) in domain-shared solver code \
     (lib/core, lib/sched, lib/sim); make it immutable, move it into the \
     call, or justify with [@lint.allow \"E007\"]"
  | U001 ->
    "unit mismatch between the operands of a float addition, subtraction, \
     comparison or min/max (adding an energy to a time, comparing a speed \
     against a deadline)"
  | U002 ->
    "unit mismatch against a [@units] annotation: argument at an annotated \
     call site, annotated record field, value constraint, or the result of \
     an exported function"
  | U003 ->
    "public float in a lib/core or lib/platform interface without a [@units \
     \"...\"] annotation (work, freq, time, energy, power, prob, \
     dimensionless, and products/quotients/powers thereof)"
  | P001 ->
    "parallel region captures and writes shared mutable state (ref, mutable \
     field, Hashtbl/Queue/Stack/Buffer defined outside the region) without \
     Atomic/Mutex protection — a data race across worker domains"
  | P002 ->
    "parallel region reaches an ambient-nondeterminism source (Random.*, \
     Sys.time, Unix.gettimeofday, Domain.self, Gc stats, hash-ordered \
     Hashtbl iteration over a captured table); output would depend on \
     scheduling — derive per-task streams with Rng.split / map_seeded"
  | P003 ->
    "parallel region reaches a blocking operation (Mutex.lock/protect on a \
     captured lock, Condition.wait, Unix.sleep*, raw Pool.submit re-entry); \
     workers stall or deadlock — keep worker code non-blocking"
  | P004 ->
    "Domain.* / Domain.DLS use outside the sanctioned owners lib/par and \
     lib/obs; route domain management through Es_par.Pool so the pool owns \
     every worker domain"
  | X001 ->
    "exported lib/ value may raise but its .mli doc comment has no @raise \
     tag; document the contract or narrow the exceptions with try/with"
  | R001 ->
    "resource acquired but never released in this binding (open_in/open_out \
     or Unix.openfile without close, Pool.create without shutdown, \
     Mutex.lock without unlock); release it or use the with_/protect form"
  | R002 ->
    "code between a resource acquire and its unprotected release may raise, \
     leaking the resource on the exceptional path; wrap the body in \
     Fun.protect ~finally (or Mutex.protect for locks)"
  | R003 ->
    "Obs.enable without a balanced Obs.disable on every path (missing or \
     unprotected while the code between may raise); put the disable in a \
     Fun.protect ~finally"

let compare_rule a b = String.compare (id a) (id b)
