(** Block constants shared by the whole stack.

    WAFL is block based, using 4 KB blocks with no fragments (paper §2);
    every layer of this reproduction moves data in whole 4 KB blocks. *)

val size : int
(** 4096 bytes. *)

type addr = int
(** A volume block number (vbn). The volume presents a flat [0, nblocks)
    address space assembled from its RAID groups' data disks. *)

val zero : unit -> bytes
(** A fresh all-zero block. *)

val is_zero : bytes -> bool

val xor_into : bytes -> bytes -> unit
(** [xor_into dst src] sets [dst.[i] <- dst.[i] lxor src.[i]] for every byte
    of [dst], eight bytes at a time: the RAID-4 parity kernel. Raises
    [Invalid_argument] if [src] is shorter than [dst]. *)

val xor3_into : bytes -> bytes -> bytes -> bytes -> unit
(** [xor3_into dst a b c] sets [dst.[i] <- a.[i] lxor b.[i] lxor c.[i]] for
    every byte of [dst] in one pass: the read-modify-write parity update.
    [dst] may be one of the sources. Raises [Invalid_argument] if a source
    is shorter than [dst]. *)

val check : bytes -> unit
(** Raises [Invalid_argument] unless the buffer is exactly one block. *)

val blocks_for : int -> int
(** [blocks_for len] is the number of blocks needed to hold [len] bytes. *)
