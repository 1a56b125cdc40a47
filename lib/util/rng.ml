(* xoshiro256** with splitmix64 seeding.  Reference: Blackman &
   Vigna, "Scrambled linear pseudorandom number generators", 2018. *)

(* The four state words s0..s3 at byte offsets 0, 8, 16 and 24.  A
   record of mutable int64 fields would box every store. *)
type t = Bytes.t

let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let state = ref (Int64.of_int seed) in
  let t = Bytes.create 32 in
  for k = 0 to 3 do
    Bytes.set_int64_ne t (8 * k) (splitmix64_next state)
  done;
  t

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let bits64 t =
  let open Int64 in
  let s0 = Bytes.get_int64_ne t 0 and s1 = Bytes.get_int64_ne t 8 in
  let s2 = Bytes.get_int64_ne t 16 and s3 = Bytes.get_int64_ne t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  Bytes.set_int64_ne t 0 s0;
  Bytes.set_int64_ne t 8 s1;
  Bytes.set_int64_ne t 16 (logxor s2 tmp);
  Bytes.set_int64_ne t 24 (rotl s3 45);
  result

let split t =
  let seed = Int64.to_int (bits64 t) in
  create ~seed

(* Uniform int in [0, n) by rejection on the top 62 bits, avoiding
   modulo bias. *)
let int t n =
  assert (n > 0);
  let mask = 0x3FFFFFFFFFFFFFFF in
  let bound = mask - (mask mod n) in
  let rec draw () =
    let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
    if v >= bound then draw () else v mod n
  in
  draw ()

(* 53-bit mantissa construction of a uniform float in [0, 1). *)
let unit_float t =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  v *. 0x1.0p-53

let float t x = unit_float t *. x

let uniform_in t lo hi =
  assert (lo <= hi);
  lo +. (unit_float t *. (hi -. lo))

let bool t = Int64.logand (bits64 t) 1L = 1L
let bernoulli t p = unit_float t < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choice t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let sample_weights t ~n ~lo ~hi = Array.init n (fun _ -> uniform_in t lo hi)
