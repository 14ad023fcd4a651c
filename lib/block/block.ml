let size = 4096

type addr = int

let zero () = Bytes.make size '\000'

let is_zero b =
  let exception Nonzero in
  try
    Bytes.iter (fun c -> if c <> '\000' then raise Nonzero) b;
    true
  with Nonzero -> false

let xor_into dst src =
  let n = Bytes.length dst in
  if Bytes.length src < n then invalid_arg "Block.xor_into: src shorter than dst";
  let words = n land lnot 7 in
  let i = ref 0 in
  while !i < words do
    Bytes.set_int64_ne dst !i
      (Int64.logxor (Bytes.get_int64_ne dst !i) (Bytes.get_int64_ne src !i));
    i := !i + 8
  done;
  for i = words to n - 1 do
    Bytes.set dst i
      (Char.unsafe_chr (Char.code (Bytes.get dst i) lxor Char.code (Bytes.get src i)))
  done

let xor3_into dst a b c =
  let n = Bytes.length dst in
  if Bytes.length a < n || Bytes.length b < n || Bytes.length c < n then
    invalid_arg "Block.xor3_into: source shorter than dst";
  let words = n land lnot 7 in
  let i = ref 0 in
  while !i < words do
    Bytes.set_int64_ne dst !i
      (Int64.logxor (Bytes.get_int64_ne a !i)
         (Int64.logxor (Bytes.get_int64_ne b !i) (Bytes.get_int64_ne c !i)));
    i := !i + 8
  done;
  for i = words to n - 1 do
    Bytes.set dst i
      (Char.unsafe_chr
         (Char.code (Bytes.get a i) lxor Char.code (Bytes.get b i)
        lxor Char.code (Bytes.get c i)))
  done

let check b =
  if Bytes.length b <> size then
    invalid_arg
      (Printf.sprintf "Block.check: buffer is %d bytes, want %d" (Bytes.length b) size)

let blocks_for len =
  if len < 0 then invalid_arg "Block.blocks_for";
  (len + size - 1) / size
