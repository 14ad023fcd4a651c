(* Outside-in layer accounting for the traced run.

   [span name f] wraps one call into a layer's public function. Each name
   accumulates self time and self allocation: the span's own interval
   minus whatever nested spans cover, so the names partition the traced
   wall time without double counting. [covered] sums the outermost spans;
   divided by the pass's wall time it is [trace.coverage]. *)

type frame = {
  t0 : float;
  a0 : float;
  mutable child_s : float;
  mutable child_b : float;
}

(* Process CPU seconds. The program runs in one thread and in memory, so
   this is its host time, and other tenants of the machine disturb it less
   than the wall clock. *)
let now = Sys.time
let self_s : (string, float) Hashtbl.t = Hashtbl.create 32
let self_b : (string, float) Hashtbl.t = Hashtbl.create 32
let counts : (string, float) Hashtbl.t = Hashtbl.create 16
let stack : frame list ref = ref []
let covered = ref 0.0

let reset () =
  Hashtbl.reset self_s;
  Hashtbl.reset self_b;
  Hashtbl.reset counts;
  stack := [];
  covered := 0.0

let bump tbl name x =
  Hashtbl.replace tbl name
    (x +. Option.value ~default:0.0 (Hashtbl.find_opt tbl name))

let span name f =
  let fr = { t0 = now (); a0 = Gc.allocated_bytes (); child_s = 0.0; child_b = 0.0 } in
  stack := fr :: !stack;
  let close () =
    let dur = now () -. fr.t0 and alloc = Gc.allocated_bytes () -. fr.a0 in
    bump self_s name (dur -. fr.child_s);
    bump self_b name (alloc -. fr.child_b);
    match !stack with
    | _ :: (parent :: _ as rest) ->
      parent.child_s <- parent.child_s +. dur;
      parent.child_b <- parent.child_b +. alloc;
      stack := rest
    | _ ->
      stack := [];
      covered := !covered +. dur
  in
  Fun.protect ~finally:close f

let count name n = bump counts name (Float.of_int n)
let seconds name = Option.value ~default:0.0 (Hashtbl.find_opt self_s name)
let alloc_mb name = Option.value ~default:0.0 (Hashtbl.find_opt self_b name) /. 1e6
let counted name = Option.value ~default:0.0 (Hashtbl.find_opt counts name)
