(** Directory block format.

    Directories are specially formatted files (paper §2). Each 4 KB block
    is self-contained: a u16 entry count followed by packed entries
    (u32 inode number, u8 name length, name bytes). Entries never span
    blocks. Each function reads the packed entries in place, without
    decoding the block into a list (only {!entries} builds one). The file
    system walks a directory's blocks and rewrites whole blocks on change,
    which suits copy-on-write: {!remove} and {!replace} return a fresh
    block, and {!add} does too unless asked to append in place. Every
    result block is zero past its last entry. *)

val empty_block : unit -> bytes

val entries : bytes -> (string * int) list
(** [(name, ino)] pairs in storage order. Raises [Serde.Corrupt] on a
    malformed block. *)

val count : bytes -> int

val find : bytes -> string -> int option
(** The inode of the first entry named [name]. Checks every entry, so a
    malformed block raises [Serde.Corrupt] wherever the damage lies. *)

val add : ?in_place:bool -> bytes -> string -> int -> bytes option
(** [add block name ino] is the block with the entry appended, or [None] if
    it doesn't fit. The result is a fresh block, unless [in_place] (default
    [false]) is set: then [block] itself, a full 4 KB block the caller
    owns, is changed and returned. [block] is untouched when the entry
    doesn't fit. Raises [Invalid_argument] on an oversized or empty name.
    Does not check for duplicates (the file system checks the whole
    directory first). *)

val remove : bytes -> string -> bytes option
(** The block without [name], or [None] if [name] is absent. *)

val replace : bytes -> string -> int -> bytes option
(** Point an existing entry at a new inode (rename support). *)
