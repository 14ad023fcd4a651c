(* Reference generator: the SplitMix64 [Prng] with its state boxed in a
   mutable [int64] field and a recursive-closure [int], which
   Repro_util.Prng replaced with state unboxed in an 8-byte buffer and a
   loop (plus a mask for power-of-two bounds). test_util draws from this
   module and from Repro_util.Prng in lockstep over many seeds and bounds
   and requires the same stream. Linked into every test executable, like
   differential.ml; it is not itself a test. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9e3779b97f4a7c15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = int64 t }

(* 61 random bits: the range [0, 2^61) is comfortably representable in
   OCaml's 63-bit native int, including as an exclusive bound. *)
let bit_range = 1 lsl 61
let bits t = Int64.to_int (Int64.shift_right_logical (int64 t) 3)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int";
  (* Rejection sampling to avoid modulo bias. *)
  let limit = bit_range - (bit_range mod bound) in
  let rec draw () =
    let v = bits t in
    if v >= limit then draw () else v mod bound
  in
  draw ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in";
  lo + int t (hi - lo + 1)

let float t bound = bound *. (Float.of_int (bits t) /. Float.of_int bit_range)
let bool t = Int64.logand (int64 t) 1L = 1L
