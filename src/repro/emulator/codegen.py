"""Codegen emulator backend: ICI compiled to one Python function.

The reference loop (:mod:`repro.emulator.machine`) pays CPython's full
dispatch cost on every dynamic instruction: a tuple fetch, an opcode
comparison chain, a register-file list indexing per operand and
per-step statistics updates.  This backend removes all of them the way
trace-scheduling compilers (and B-Prolog's instruction
specialisation) do: the whole program is emitted as the *source* of a
single Python function and run through :func:`compile`, with

* **machine registers as function locals** — every operand access is a
  ``LOAD_FAST``/``STORE_FAST`` instead of a list indexing;
* **trace straight-lining** — a dispatch arm inlines the control-flow
  tree below its entry block, following fall-through, ``jmp``,
  ``call`` and *both* sides of conditional branches (bounded code
  duplication, deeper along the statically likely direction —
  backward-taken/forward-not-taken, the paper's own branch heuristic);
* **call-return elimination** — the emitter tracks registers that
  provably hold a known code pointer (``call`` link stores, code-tagged
  ``ldi``), so a ``jmpr`` through one resolves statically and whole
  call/routine/return sequences become straight-line code;
* **value/tag caching and folding** — untagged operand values
  (``r >> 4``) and tag fields (``(r >> 1) & 7``) are computed once per
  trace and reused; a tag test whose operand tag is statically known
  (after ``lea``/``mktag``/``ldi``) folds away entirely, which deletes
  most switch-on-tag dispatch along built-structure paths;
* **loops as Python loops** — an arm whose entry block is its own
  back-edge target compiles to a real ``for`` loop over a shared
  ``range(limit + 1)``, so hot recursion/iteration spins without
  re-entering the dispatcher; every iteration of any loop executes at
  least one ICI step, so exhausting the range proves the step limit
  was exceeded (a bail to the exact reference fault) with no fuel
  counting on the hot path;
* **path-level statistics** — instead of per-block counters, each
  straight-line path through an arm bumps a single slot in a path
  counter array; a post-run replay expands path counts into the per-pc
  ``counts``/``taken`` arrays (each path's block and taken-edge lists
  are static), bit-identical to the reference loop;
* **a small trampoline** — inter-trace branches dispatch on a dense
  block id through a balanced comparison tree.

Compilation is content-addressed: the generated module's code object
and the path tables are persisted (``marshal`` + base64) as ``codegen``
entries of the artefact store (:mod:`repro.evaluation.cache`), keyed
on the program fingerprint, the codegen component digest and the
Python ABI, so a sweep re-run loads checksummed bytecode instead of
recompiling.  Artefacts are only *written* when the caller opts in
(``persist=True`` — the profile cache and the bench harness do); every
construction still consults the store.

The backend is *semantics-complete or honest*: a program the generator
cannot express runs on the reference loop instead, anything it cannot
compile inside a program becomes a bail-out, and any bail-out or
machine fault at run time (wild indirect jump, uninitialised memory
read, division by zero, step limit) falls back to one clean re-run —
the reference loop reproduces the exact result or the exact fault.
Equality with the reference loop is enforced by
``tests/test_fuzz_equivalence.py``.
"""

import base64
import marshal
import sys

from repro.terms import tags
from repro.testing import faults
from repro.emulator.machine import (
    EmulationResult, Emulator, decode, initial_memory, initial_registers,
    render_term,
    _LD, _ST, _BTAG, _BNTAG, _MOV, _LEA, _LDI, _BEQ, _BNE, _JMP, _CALL,
    _JMPR, _ADD, _SUB, _MUL, _DIV, _MOD, _AND, _OR, _XOR, _SLL, _SRA,
    _BLTV, _BLEV, _BGTV, _BGEV, _MKTAG, _GETTAG, _ESC, _HALT)

__all__ = ["CodegenEmulator", "basic_blocks", "codegen_code",
           "generate_source"]

#: the artefact-store kind of persisted compiled programs
ARTIFACT_KIND = "codegen"

#: control transfers that terminate a basic block
_TERMINATORS = frozenset([
    _BTAG, _BNTAG, _BEQ, _BNE, _BLTV, _BLEV, _BGTV, _BGEV,
    _JMP, _CALL, _JMPR, _HALT])

#: conditional branches (the ops that contribute to ``taken``)
_CONDITIONAL = frozenset([
    _BTAG, _BNTAG, _BEQ, _BNE, _BLTV, _BLEV, _BGTV, _BGEV])

_CMP_OPERATOR = {_BEQ: "==", _BNE: "!=", _BLTV: "<", _BLEV: "<=",
                 _BGTV: ">", _BGEV: ">="}
_ALU_OPERATOR = {_ADD: "+", _SUB: "-", _MUL: "*", _AND: "&", _OR: "|",
                 _XOR: "^", _SLL: "<<", _SRA: ">>"}

#: how many times one block may repeat on a profiled (tier-2) trace.
#: Unrolling short-trip cycles inline looked attractive, but >1
#: explodes the path table (and with it source size and the per-run
#: replay) faster than it saves trampoline rounds on every measured
#: benchmark, so cycles stay cut at one pass.
_REVISIT = 1

#: how deep an arm inlines along its *primary* chain (fall-through,
#: ``jmp``, ``call``, resolved ``jmpr``, and the statically likely side
#: of each conditional: backward-taken / forward-not-taken)
_MAIN_DEPTH = 48

#: how deep the statically *unlikely* side of a conditional inlines
#: before handing the block id back to the dispatcher
_SIDE_DEPTH = 3

#: hard cap on inlined blocks per arm (bounds generated-code growth
#: even when side chains branch richly)
_ARM_CAP = 80

#: tier-2 depth/cap for arms the profiling run actually entered (cold
#: sides are pruned to nothing, so hot chains can afford to go deeper)
_HOT_DEPTH = 96
_HOT_CAP = 160

#: dynamic step count above which a clean first run triggers the
#: profile-guided tier-2 recompile — short programs (fuzz one-shots)
#: would pay more in compile time than they could ever win back
_TIER2_STEPS = 10_000

_TCOD_BITS = tags.TCOD << 1
_INT_BITS = tags.TINT << 1

#: the fault-injection site compiled into block prologues when armed
FAULT_SITE = "emulator.codegen.block"

#: rendering tokens for arm control transfers (resolved per arm: an arm
#: that loops is wrapped in ``while True`` and exits with ``break``; a
#: straight-line arm exits with the trampoline's ``continue``)
_EXIT = "\x00exit"
_LOOP = "\x00loop"

_ALU_FUNC = {
    op: {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
         "*": lambda a, b: a * b, "&": lambda a, b: a & b,
         "|": lambda a, b: a | b, "^": lambda a, b: a ^ b,
         "<<": lambda a, b: a << b, ">>": lambda a, b: a >> b}[symbol]
    for op, symbol in _ALU_OPERATOR.items()}

#: ALU ops computable directly on tagged words when both operand tag
#: nibbles are known (``(va ± vb) << 4 | 4`` is ``wa ± wb`` plus a
#: compile-time constant); value is the right operand's sign
_WORD_ALU_SIGN = {op: (1 if symbol == "+" else -1)
                  for op, symbol in _ALU_OPERATOR.items()
                  if symbol in ("+", "-")}

#: shift folds are range-guarded so compile-time folding can never
#: allocate a huge integer a real run would only build at run time
_SHIFT_OPS = {op for op, symbol in _ALU_OPERATOR.items()
              if symbol in ("<<", ">>")}


class _Bailout(Exception):
    """Internal: the compiled run hit something only the reference loop
    handles exactly (step-limit edge, unsupported construct, wild jump).
    """


# --------------------------------------------------------------------------
# Basic blocks and static reachability.

def basic_blocks(program):
    """The basic-block partition of *program*'s decoded code.

    Returns a list of ``(start, end)`` index pairs.  Leaders are the
    entry point, every label (all branch targets are labels, and any
    label may be reached indirectly through ``ldi``/``jmpr``), and the
    instruction after every control transfer (which covers ``call``
    return addresses).
    """
    code, _ = decode(program)
    n = len(code)
    leaders = {program.entry_pc}
    for index in program.labels.values():
        if index < n:
            leaders.add(index)
    for pc, ins in enumerate(code):
        if ins[0] in _TERMINATORS and pc + 1 < n:
            leaders.add(pc + 1)
    starts = sorted(leaders)
    return [(start, end) for start, end in
            zip(starts, starts[1:] + [n])]


def _reachable_indices(code, spans, entry_pc):
    """The block indices codegen must cover, or None for "all of them".

    Compiling every basic block makes the generated module proportional
    to *static* program size, which for one-shot programs (the fuzz
    suite, `repro run`) is dominated by never-called library predicates.
    This walks the static control flow instead: from the entry block,
    follow branch/jump/call targets, fall-throughs, call return sites,
    and every code address materialised by an `ldi` in reachable code
    (the only way a label reaches a register, hence the only possible
    `jmpr` targets — plus pc 0, where the initial CP/RL point).

    Unreached blocks get no dispatch arm; an indirect jump into one
    bails out and re-runs on the reference loop, so pruning can cost a
    fallback but never an incorrect result.  If reachable code
    manufactures code-tagged words out of thin air (`mktag`/`lea` with
    the TCOD tag), the analysis gives up and returns None.
    """
    index_of = {start: index for index, (start, _end) in enumerate(spans)}
    n = len(code)
    roots = [index_of[entry_pc]]
    if 0 in index_of:
        roots.append(index_of[0])
    reachable = set()
    work = list(roots)
    while work:
        index = work.pop()
        if index in reachable:
            continue
        reachable.add(index)
        start, end = spans[index]
        targets = []
        terminated = False
        for pc in range(start, end):
            ins = code[pc]
            op = ins[0]
            if op == _LDI:
                word = ins[2]
                if word >= 0 and word & 0b1110 == _TCOD_BITS \
                        and (word >> 4) in index_of:
                    targets.append(index_of[word >> 4])
            elif (op == _MKTAG and ins[3] == tags.TCOD) \
                    or (op == _LEA and ins[4] == tags.TCOD):
                return None
            elif op in _TERMINATORS:
                terminated = True
                if op == _JMP:
                    targets.append(index_of[ins[1]])
                elif op == _CALL:
                    targets.append(index_of[ins[2]])
                    if pc + 1 in index_of:
                        targets.append(index_of[pc + 1])
                elif op in _CONDITIONAL:
                    targets.append(index_of[ins[3]])
                    if end < n:
                        targets.append(index_of[end])
                break
        if not terminated and end < n:
            targets.append(index_of[end])
        work.extend(target for target in targets
                    if target not in reachable)
    return reachable


# --------------------------------------------------------------------------
# Source generation.

def _const(value):
    return "(%d)" % value if value < 0 else "%d" % value


class _Path:
    """Mutable per-trace emission state: the statically known register
    facts on this path plus the path's statistics record.  Forked at
    every runtime conditional (each side owns its copies)."""

    __slots__ = ("value", "tag", "nottag", "dirty", "blocks", "takens",
                 "seen")

    def __init__(self, value, tag, nottag, dirty, blocks, takens, seen):
        self.value = value      # reg -> untagged value: int | temp
        #                         name | offset expr ("v0 + 3")
        self.tag = tag          # reg -> tag *bits* (tag << 1, the
        #                         word's low nibble): int | temp name
        self.nottag = nottag    # reg -> set of tag bits excluded by
        #                         earlier not-taken/taken tag branches
        self.dirty = dirty      # regs whose machine word is *stale*:
        #                         value+tag facts are authoritative and
        #                         the pack is sunk to the first word
        #                         read or the end of the path
        self.blocks = blocks    # dense block ids crossed, in order
        self.takens = takens    # dense ids of conditionals exited taken
        self.seen = seen        # block index -> visits (cycle cut)

    def fork(self):
        return _Path(dict(self.value), dict(self.tag),
                     {reg: set(excluded)
                      for reg, excluded in self.nottag.items()},
                     set(self.dirty),
                     list(self.blocks), list(self.takens),
                     dict(self.seen))

    def write(self, reg, value=None, tag=None):
        """Register *reg*'s word was assigned: retire or replace its
        facts (a written word is by definition not stale)."""
        if value is None:
            self.value.pop(reg, None)
        else:
            self.value[reg] = value
        if tag is None:
            self.tag.pop(reg, None)
        else:
            self.tag[reg] = tag
        self.nottag.pop(reg, None)
        self.dirty.discard(reg)

    def exclude_tag(self, reg, bits):
        """This path learned ``tagbits(reg) != bits``.  Seven
        exclusions pin the eighth tag exactly."""
        excluded = self.nottag.setdefault(reg, set())
        excluded.add(bits)
        if len(excluded) == 7:
            self.tag[reg] = next(b for b in range(0, 16, 2)
                                 if b not in excluded)


class _ArmCompiler:
    """Emits the dispatch-arm bodies of the generated function."""

    def __init__(self, code, spans, dense_of, index_of, fire=False,
                 profile=None):
        self.code = code
        self.n = len(code)
        self.spans = spans
        self.dense_of = dense_of    # block index -> dense dispatch id
        self.index_of = index_of    # start pc -> block index
        self.fire = fire
        self.profile = profile      # (counts, taken, heads) prior run
        self.cap = _ARM_CAP if profile is None else _HOT_CAP
        self.paths = []             # path id -> (blocks, takens)
        # blocks ending in halt are never inlined into another arm:
        # halting happens once per run, dispatching to it is free
        self.halts = {index for index, (_s, end) in enumerate(spans)
                      if code[end - 1][0] == _HALT}

    # -- per-path value/tag bookkeeping ---------------------------------
    #
    # A cache entry is either a compile-time int (the fact itself) or
    # the name of a temp local currently holding the fact.  Before a
    # temp is *reassigned* (its register changed value), every other
    # entry aliasing that name must be retired — the old binding is
    # still correct until exactly that point.

    def _flush_reg(self, reg, path, depth, body):
        """Materialise a sunk register word from its recorded facts."""
        if reg not in path.dirty:
            return
        value, bits = path.value[reg], path.tag[reg]
        body.append((depth, self._pack(reg, self._expr(value), bits)))
        path.dirty.discard(reg)

    def _flush_all(self, path, depth, body):
        for reg in sorted(path.dirty):
            value, bits = path.value[reg], path.tag[reg]
            body.append((depth,
                         self._pack(reg, self._expr(value), bits)))
        path.dirty.clear()

    def _retire(self, name, path, depth, body):
        prefix = name + " "
        for cache in (path.value, path.tag):
            stale = [reg for reg, held in cache.items()
                     if held == name or (isinstance(held, str)
                                         and held.startswith(prefix))]
            for reg in stale:
                # a dirty register's only record of its word is this
                # fact — materialise it before the fact goes stale
                # (the emission point is just before the reassignment)
                self._flush_reg(reg, path, depth, body)
                if reg in cache:
                    del cache[reg]

    @staticmethod
    def _expr(fact):
        if isinstance(fact, int):
            return _const(fact)
        return "(%s)" % fact if " " in fact else fact

    def _value_of(self, reg, path, depth, body):
        """``r<reg> >> 4`` as a known int or a cached temp name."""
        known = path.value.get(reg)
        if known is not None:
            return known
        name = "v%d" % reg
        self._retire(name, path, depth, body)
        body.append((depth, "%s = r%d >> 4" % (name, reg)))
        path.value[reg] = name
        return name

    def _tag_of(self, reg, path, depth, body):
        """Tag *bits* of ``r<reg>`` (``tag << 1``) as a known int or a
        cached temp — one mask instead of shift-and-mask."""
        known = path.tag.get(reg)
        if known is not None:
            return known
        name = "g%d" % reg
        self._retire(name, path, depth, body)
        body.append((depth, "%s = r%d & 14" % (name, reg)))
        path.tag[reg] = name
        return name

    def _pack(self, rd, expr, bits):
        """``r<rd> = (expr << 4) | bits`` — the ``| 0`` of a reference
        tag (the most common built word) elides."""
        if bits:
            return "r%d = (%s << 4) | %d" % (rd, expr, bits)
        return "r%d = %s << 4" % (rd, expr)

    @staticmethod
    def _offset(expr, offset):
        """Fold a constant offset into a value expression (offset
        expressions are always of the shape ``name ± k``)."""
        parts = expr.split(" ")
        if len(parts) == 3:
            expr = parts[0]
            offset += int(parts[2]) if parts[1] == "+" \
                else -int(parts[2])
        if not offset:
            return expr
        if offset > 0:
            return "%s + %d" % (expr, offset)
        return "%s - %d" % (expr, -offset)

    def _address(self, reg, offset, path, depth, body):
        """``(r<reg> >> 4) + offset`` as ``(expression, known_int)``."""
        base = self._value_of(reg, path, depth, body)
        if isinstance(base, int):
            return _const(base + offset), base + offset
        return self._offset(base, offset), None

    # -- arm emission ---------------------------------------------------

    def emit_arm(self, entry_index):
        """One dispatch arm as (depth, text) lines, depth-relative to
        the arm's base.  Control transfers back to the entry block
        render as a loop ``continue``; every other exit ends the
        current path (one counter bump) and either dispatches or
        returns."""
        self.arm_entry = entry_index
        self.arm_nodes = 0
        self.has_loop = False
        body = []
        path = _Path({}, {}, {}, set(), [], [], {entry_index: 1})
        if self.fire:
            budget = 0
        elif self.profile is not None:
            # profile-guided retrace (tier 2): arms the first run never
            # entered stay minimal, hot arms inline deeper — the saved
            # code growth pays for the raised depth
            start = self.spans[entry_index][0]
            budget = _HOT_DEPTH if self.profile[0][start] else 0
        else:
            budget = _MAIN_DEPTH
        self._emit_block(entry_index, 0, path, budget, body)
        return body, self.has_loop

    def _end_path(self, path, depth, body):
        """Close the running trace: materialise every sunk register
        word, allocate the path id and bump it."""
        self._flush_all(path, depth, body)
        k = len(self.paths)
        self.paths.append((tuple(path.blocks), tuple(path.takens)))
        body.append((depth, "P[%d] += 1" % k))
        return k

    def _emit_block(self, index, depth, path, budget, body):
        code = self.code
        start, end = self.spans[index]
        self.arm_nodes += 1
        path.blocks.append(self.dense_of[index])
        if self.fire:
            body.append((depth, "FIRE()"))
        for position in range(start, end):
            ins = code[position]
            if ins[0] in _TERMINATORS:
                self._emit_terminator(index, position, ins, end, depth,
                                      path, budget, body)
                return
            self._emit_straightline(ins, depth, path, body)
        # fall-through into the next block, or off the end of the code
        # (which only the reference loop faults on exactly)
        if end < self.n:
            self._transfer(end, depth, path, budget, body)
        else:
            body.append((depth, "raise Bail"))

    def _transfer(self, pc, depth, path, budget, body):
        """Control moves to the block starting at *pc*: loop, inline or
        dispatch."""
        index = self.index_of[pc]
        if index == self.arm_entry:
            self.has_loop = True
            self._end_path(path, depth, body)
            body.append((depth, _LOOP))
            return
        # cycles cut after _REVISIT passes: Prolog's hot loops (argument
        # walks, short list spins) mostly trip once or twice, so a
        # profiled trace unrolls them inline instead of paying a
        # trampoline round every entry; tier 1 stays at one pass
        revisits = _REVISIT if self.profile is not None else 1
        if budget > 0 and self.arm_nodes < self.cap \
                and path.seen.get(index, 0) < revisits \
                and index not in self.halts:
            path.seen[index] = path.seen.get(index, 0) + 1
            self._emit_block(index, depth, path, budget - 1, body)
            return
        body.append((depth, "block = %d" % self.dense_of[index]))
        self._end_path(path, depth, body)
        body.append((depth, _EXIT))

    def _emit_straightline(self, ins, depth, path, body):
        op = ins[0]
        if op == _LD:
            address, _known = self._address(ins[2], ins[3], path,
                                            depth, body)
            body.append((depth, "r%d = mem[%s]" % (ins[1], address)))
            path.write(ins[1])
        elif op == _ST:
            self._flush_reg(ins[1], path, depth, body)
            address, _known = self._address(ins[2], ins[3], path,
                                            depth, body)
            body.append((depth, "mem[%s] = r%d" % (address, ins[1])))
        elif op == _MOV:
            if ins[2] in path.dirty:
                # the source word is sunk: copy the facts, not the word
                path.write(ins[1], path.value[ins[2]],
                           path.tag[ins[2]])
                path.dirty.add(ins[1])
            else:
                body.append((depth, "r%d = r%d" % (ins[1], ins[2])))
                path.write(ins[1], path.value.get(ins[2]),
                           path.tag.get(ins[2]))
                if ins[2] in path.nottag:
                    path.nottag[ins[1]] = set(path.nottag[ins[2]])
        elif op == _LDI:
            body.append((depth, "r%d = %s" % (ins[1], _const(ins[2]))))
            path.write(ins[1], ins[2] >> 4, ins[2] & 14)
        elif op == _LEA:
            expr, known = self._address(ins[2], ins[3], path, depth,
                                        body)
            bits = ins[4] << 1
            if known is not None:
                body.append((depth, "r%d = %s"
                             % (ins[1], _const((known << 4) | bits))))
                path.write(ins[1], known, bits)
                return
            # no code at all: the new word is a pure fact, sunk until
            # something reads it (heap/stack-top bumps collapse into
            # constant offsets in later addresses and a single pack)
            path.write(ins[1], expr, bits)
            path.dirty.add(ins[1])
        elif op == _MKTAG:
            value = path.value.get(ins[2])
            if value is not None and ins[2] not in path.dirty:
                # the value field is known: build the word lazily too
                path.write(ins[1], value, ins[3] << 1)
                path.dirty.add(ins[1])
            elif ins[2] in path.dirty:
                path.write(ins[1], path.value[ins[2]], ins[3] << 1)
                path.dirty.add(ins[1])
            else:
                body.append((depth, "r%d = (r%d & -15) | %d"
                             % (ins[1], ins[2], ins[3] << 1)))
                # retagging preserves the value field
                path.write(ins[1], None, ins[3] << 1)
        elif op == _GETTAG:
            known = path.tag.get(ins[2])
            if isinstance(known, int):
                body.append((depth, "r%d = %d"
                             % (ins[1],
                                ((known >> 1) << 4) | _INT_BITS)))
                path.write(ins[1], known >> 1, _INT_BITS)
            else:
                bits = self._tag_of(ins[2], path, depth, body)
                body.append((depth, "r%d = (%s << 3) | %d"
                             % (ins[1], bits, _INT_BITS)))
                path.write(ins[1], None, _INT_BITS)
        elif op in _ALU_OPERATOR:
            self._emit_alu(ins, depth, path, body)
        elif op in (_DIV, _MOD):
            left = self._expr(self._value_of(ins[2], path, depth, body))
            right = self._expr(self._value_of(ins[3], path, depth,
                                              body))
            body.append((depth, "va = %s" % left))
            body.append((depth, "vb = %s" % right))
            body.append((depth, "vq = abs(va) // abs(vb)"))
            body.append((depth, "if (va < 0) != (vb < 0):"))
            body.append((depth + 1, "vq = -vq"))
            name = "v%d" % ins[1]
            self._retire(name, path, depth, body)
            if op == _DIV:
                body.append((depth, "%s = vq" % name))
            else:
                body.append((depth, "%s = va - vq * vb" % name))
            body.append((depth, "r%d = (%s << 4) | %d"
                         % (ins[1], name, _INT_BITS)))
            path.write(ins[1], name, _INT_BITS)
        elif op == _ESC:
            if ins[1] == "write" and ins[2] is not None:
                self._flush_reg(ins[2], path, depth, body)
                body.append((depth, "out_append(W(r%d))" % ins[2]))
            elif ins[1] == "nl":
                body.append((depth, 'out_append("\\n")'))
            else:
                body.append((depth, "raise Bail"))
        else:  # pragma: no cover - decode() admits no other opcode
            raise AssertionError("unreachable opcode %d" % op)

    def _emit_alu(self, ins, depth, path, body):
        """Integer ALU ops: constant-fold when both operand values are
        known; emit add/sub directly on tagged words when both operand
        tag bits are known (``(va+vb)<<4 | 4 == wa + wb + 4-ba-bb``, so
        one expression replaces shift/shift/op/pack); classic
        shift-and-pack otherwise."""
        op, rd = ins[0], ins[1]
        va = path.value.get(ins[2])
        vb = path.value.get(ins[3])
        if isinstance(va, int) and isinstance(vb, int) \
                and (op not in _SHIFT_OPS or 0 <= vb <= 64):
            folded = _ALU_FUNC[op](va, vb)
            body.append((depth, "r%d = %s"
                         % (rd, _const((folded << 4) | _INT_BITS))))
            path.write(rd, folded, _INT_BITS)
            return
        if op in _WORD_ALU_SIGN and ins[2] not in path.dirty \
                and ins[3] not in path.dirty:
            ba = va if isinstance(va, int) else path.tag.get(ins[2])
            bb = vb if isinstance(vb, int) else path.tag.get(ins[3])
            if isinstance(ba, int) and isinstance(bb, int):
                sign = _WORD_ALU_SIGN[op]
                constant = _INT_BITS
                terms = []
                if isinstance(va, int):
                    constant += va << 4
                else:
                    terms.append("r%d" % ins[2])
                    constant -= ba
                if isinstance(vb, int):
                    constant += sign * (vb << 4)
                else:
                    terms.append("%sr%d" % ("- " if sign < 0 else "+ ",
                                            ins[3]))
                    constant -= sign * bb
                expr = " ".join(terms).lstrip("+ ")
                if constant > 0:
                    expr += " + %d" % constant
                elif constant < 0:
                    expr += " - %d" % -constant
                body.append((depth, "r%d = %s" % (rd, expr)))
                path.write(rd, None, _INT_BITS)
                return
        left = self._expr(self._value_of(ins[2], path, depth, body))
        right = self._expr(self._value_of(ins[3], path, depth, body))
        name = "v%d" % rd
        self._retire(name, path, depth, body)
        body.append((depth, "%s = %s %s %s"
                     % (name, left, _ALU_OPERATOR[op], right)))
        body.append((depth, "r%d = (%s << 4) | %d"
                     % (rd, name, _INT_BITS)))
        path.write(rd, name, _INT_BITS)

    def _emit_terminator(self, index, position, ins, end, depth, path,
                         budget, body):
        op = ins[0]
        if op == _JMP:
            self._transfer(ins[1], depth, path, budget, body)
            return
        if op == _CALL:
            link = ((position + 1) << 4) | _TCOD_BITS
            body.append((depth, "r%d = %d" % (ins[1], link)))
            path.write(ins[1], position + 1, _TCOD_BITS)
            self._transfer(ins[2], depth, path, budget, body)
            return
        if op == _JMPR:
            # return through a link register whose value this path just
            # stored: resolve the indirect jump statically
            known = path.value.get(ins[1])
            if isinstance(known, int) and known in self.index_of:
                self._transfer(known, depth, path, budget, body)
                return
            value = self._expr(self._value_of(ins[1], path, depth,
                                              body))
            body.append((depth, "block = J[%s]" % value))
            self._end_path(path, depth, body)
            body.append((depth, _EXIT))
            return
        if op == _HALT:
            # the run is over: close the path and return the halt code
            # (the path counters live in the caller's array; the exact
            # step-limit check happens during replay, where the caller
            # computes the true step count anyway)
            self._end_path(path, depth, body)
            body.append((depth, "return %d" % ins[1]))
            return
        # -- conditional branches ---------------------------------------
        test = self._branch_test(ins, path, depth, body)
        if test is True or test is False:
            # statically decided (tag known after lea/mktag/ldi):
            # no runtime branch at all, the path record absorbs it
            if test:
                path.takens.append(self.dense_of[index])
                self._transfer(ins[3], depth, path, budget, body)
            elif end < self.n:
                self._transfer(end, depth, path, budget, body)
            else:
                body.append((depth, "raise Bail"))
            return
        # runtime branch: inline deeper along the likely side.  With a
        # profile (tier 2) "likely" is the observed majority side and a
        # side never taken on the profiling run is not inlined at all;
        # without one it is the paper's static heuristic
        # (backward-taken / forward-not-taken).
        executed = taken_count = 0
        if self.profile is not None:
            executed = self.profile[0][position]
            taken_count = self.profile[1][position]
        if executed:
            taken_primary = 2 * taken_count >= executed
        else:
            taken_primary = ins[3] <= position
        taken_budget = budget - 1 if taken_primary \
            else min(budget - 1, _SIDE_DEPTH)
        fall_budget = budget - 1 if not taken_primary \
            else min(budget - 1, _SIDE_DEPTH)
        if executed:
            # observed weights refine the static classification: a side
            # carrying a real share of executions inlines at full
            # depth even as the minority (search code branches both
            # ways hot), a side never taken is not inlined at all
            if 4 * taken_count >= executed:
                taken_budget = budget - 1
            elif not taken_count:
                taken_budget = 0
            if 4 * (executed - taken_count) >= executed:
                fall_budget = budget - 1
            elif taken_count == executed:
                fall_budget = 0
        body.append((depth, "if %s:" % test))
        taken = path.fork()
        taken.takens.append(self.dense_of[index])
        # each side of a tag test narrows what it knows about the tag,
        # so later tests in a switch-on-tag chain fold away
        if op == _BTAG:
            taken.tag[ins[1]] = ins[2] << 1
            path.exclude_tag(ins[1], ins[2] << 1)
        elif op == _BNTAG:
            taken.exclude_tag(ins[1], ins[2] << 1)
            path.tag[ins[1]] = ins[2] << 1
        self._transfer(ins[3], depth + 1, taken, taken_budget, body)
        if end < self.n:
            self._transfer(end, depth, path, fall_budget, body)
        else:
            body.append((depth, "raise Bail"))

    def _compare_operand(self, reg, path, depth, body):
        """An expression whose value is ``value(r<reg>) << 4`` — the
        scale cancels in comparisons, so a register with known tag bits
        compares at word level without any shift."""
        known = path.value.get(reg)
        if isinstance(known, int):
            return _const(known << 4)
        bits = path.tag.get(reg)
        if isinstance(bits, int) and known is None:
            return "r%d - %d" % (reg, bits) if bits else "r%d" % reg
        value = self._value_of(reg, path, depth, body)
        return "(%s << 4)" % value if isinstance(value, str) \
            else _const(value << 4)

    def _branch_test(self, ins, path, depth, body):
        """The branch condition as a Python expression — or True/False
        when it folds at compile time."""
        op = ins[0]
        if op in (_BTAG, _BNTAG):
            bits = ins[2] << 1
            known = path.tag.get(ins[1])
            if isinstance(known, int):
                return (known == bits) if op == _BTAG \
                    else (known != bits)
            if bits in path.nottag.get(ins[1], ()):
                return op == _BNTAG
            # tests rarely re-read the raw extract (the branch sides
            # learn the tag as a fact), so fusing the mask into the
            # compare beats materialising a temp first
            tag = known if isinstance(known, str) \
                else "(r%d & 14)" % ins[1]
            return "%s %s %d" % (tag, "==" if op == _BTAG else "!=",
                                 bits)
        if op in (_BEQ, _BNE):
            self._flush_reg(ins[1], path, depth, body)
            self._flush_reg(ins[2], path, depth, body)
            return "r%d %s r%d" % (ins[1], _CMP_OPERATOR[op], ins[2])
        left = self._compare_operand(ins[1], path, depth, body)
        right = self._compare_operand(ins[2], path, depth, body)
        return "%s %s %s" % (left, _CMP_OPERATOR[op], right)


def _render_arm(lines, body, has_loop, depth):
    """Render an arm's (relative_depth, text) body at *depth*.  A
    looping arm wraps in a bounded ``for`` over SPIN (``range(limit +
    1)`` — every iteration executes at least one step, so exhausting
    it proves the step limit is blown and the ``else`` clause bails
    honestly); transfers render as ``break``/``continue``."""
    if has_loop:
        lines.append("    " * depth + "for _ in SPIN:")
        inner = depth + 1
        exit_token, loop_token = "break", "continue"
    else:
        inner = depth
        exit_token, loop_token = "continue", None
    for relative, text in body:
        if text is _EXIT:
            text = exit_token
        elif text is _LOOP:
            text = loop_token
        lines.append("    " * (inner + relative) + text)
    if has_loop:
        lines.append("    " * depth + "else:")
        lines.append("    " * (depth + 1) + "raise Bail")
        # the only other way out of the arm loop is `break`: hand the
        # new block id back to the trampoline
        lines.append("    " * depth + "continue")


def generate_source(program, fire=False, profile=None):
    """The generated module source + dispatch metadata for *program*.

    Returns ``(source, blocks, jump, entry_dense, paths)`` where
    *blocks* is the dense-id-ordered list of ``(start, end, cond_pc)``
    triples, *jump* maps a pc to a dense block id (or -1),
    *entry_dense* is baked into the function as the initial dispatch
    id, and *paths* is the path table — per path id, the tuple of
    dense block ids it crosses and the dense ids of conditionals it
    exits taken (the post-run statistics replay).  With *fire* the
    ``emulator.codegen.block`` fault hook is compiled into every block
    prologue and inlining is disabled (chaos runs only — never
    cached).  With *profile* — ``(counts, taken)`` per-pc statistics
    from a prior run of the same program — tracing is profile-guided
    (tier 2): primary branch sides come from the observed majority,
    never-taken sides and never-entered arms are not inlined, and hot
    chains inline deeper, which turns hot cycles into real Python
    loops instead of dispatcher round-trips.
    """
    code, reg_index = decode(program)
    spans = basic_blocks(program)
    reachable = _reachable_indices(code, spans, program.entry_pc)
    if reachable is None:
        compiled = list(range(len(spans)))
    else:
        compiled = sorted(reachable)
    heads = None
    if profile is not None:
        # dense ids ordered by observed *dispatch* count (how often
        # the tier-1 trampoline actually entered each arm — inlined
        # entries never dispatch): the weighted dispatch tree splits
        # contiguous id ranges, so clustering the hot arms at low ids
        # puts them a couple of comparisons deep
        heads = profile[2] if len(profile) > 2 else {}
        compiled.sort(
            key=lambda index: (-heads.get(spans[index][0],
                                          profile[0][spans[index][0]]),
                               index))
    dense_of = {index: dense for dense, index in enumerate(compiled)}
    index_of = {start: index
                for index, (start, _end) in enumerate(spans)}
    blocks = []
    for index in compiled:
        start, end = spans[index]
        cond = end - 1 if code[end - 1][0] in _CONDITIONAL else -1
        blocks.append((start, end, cond))
    jump = [-1] * len(code)
    for dense, (start, _end, _cond) in enumerate(blocks):
        jump[start] = dense
    entry_dense = dense_of[index_of[program.entry_pc]]

    lines = ["def _run(regs, mem, out_append, W, P, L, limit, J, "
             "Bail, FIRE=None):"]
    for reg in range(len(reg_index)):
        lines.append("    r%d = regs[%d]" % (reg, reg))
    lines.append("    block = %d" % entry_dense)
    # every trampoline iteration (and every arm-loop iteration)
    # executes at least one instruction, so range(limit + 1) bounds
    # both: exhaustion proves the step limit is blown, and the exact
    # zip-sum check at every halt catches runs that finish past it
    lines.append("    SPIN = range(limit + 1)")
    lines.append("    for _ in SPIN:")
    compiler = _ArmCompiler(code, spans, dense_of, index_of, fire=fire,
                            profile=profile)

    # cumulative dispatch weights: without a profile the tree is
    # balanced (uniform weights); with one it splits at the weighted
    # median, so the hottest arms sit a couple of comparisons deep
    # while cold arms absorb the longer compare chains
    if profile is None:
        prefix = list(range(len(blocks) + 1))
    else:
        prefix = [0]
        for start, _end, _cond in blocks:
            weight = heads.get(start, profile[0][start])
            prefix.append(prefix[-1] + weight + 1)

    def emit_dispatch(lo, hi, depth):
        # a comparison tree over dense ids [lo, hi); an id matching no
        # leaf (the J table's -1 sentinel, a pruned block) falls out of
        # the tree to the trampoline's final `raise Bail`
        if lo + 1 == hi:
            lines.append("    " * depth + "if block == %d:" % lo)
            body, has_loop = compiler.emit_arm(compiled[lo])
            _render_arm(lines, body, has_loop, depth + 1)
            return
        half = (prefix[lo] + prefix[hi]) / 2.0
        mid = lo + 1
        while mid < hi - 1 and prefix[mid] < half:
            mid += 1
        lines.append("    " * depth + "if block < %d:" % mid)
        emit_dispatch(lo, mid, depth + 1)
        lines.append("    " * depth + "else:")
        emit_dispatch(mid, hi, depth + 1)

    emit_dispatch(0, len(blocks), 2)
    lines.append("        raise Bail")
    lines.append("    raise Bail")
    return ("\n".join(lines) + "\n", blocks, jump, entry_dense,
            compiler.paths)


# --------------------------------------------------------------------------
# Compilation + the content-addressed artefact store.

class _CodegenCode:
    """One program's compiled codegen backend (memoised on the Program)."""

    __slots__ = ("run", "blocks", "jump", "entry", "n", "paths",
                 "lengths", "source", "fire", "from_cache", "tier",
                 "template", "pcs")

    def __init__(self, run, blocks, jump, entry, n, paths, source,
                 fire, from_cache, tier=1):
        self.run = run          # the generated _run function
        self.blocks = blocks    # per dense id: (start, end, cond_pc)
        self.jump = jump        # pc -> dense id (or -1): jmpr table
        self.entry = entry      # initial dispatch id (baked in _run)
        self.n = n              # program length in instructions
        self.paths = paths      # path id -> (dense blocks, dense takens)
        self.source = source    # generated Python (debugging aid;
        #                         None when loaded from the store)
        self.fire = fire        # compiled with the fault hook armed
        self.from_cache = from_cache
        self.tier = tier        # 1 = static heuristics, 2 = profiled
        # written-address template from the first clean run: rerunning
        # the same deterministic program can pre-size its memory dict
        # (None marks cells the run writes before it ever reads them)
        self.template = None
        # lazily flattened (pcs, taken_pcs) per path, for the replay
        self.pcs = [None] * len(paths)
        self.lengths = tuple(
            sum(blocks[dense][1] - blocks[dense][0]
                for dense in path_blocks)
            for path_blocks, _takens in paths)


def _environment_key():
    """The Python ABI the persisted bytecode is only valid under."""
    return "%s-%d.%d-m%d" % (sys.implementation.name,
                             sys.version_info[0], sys.version_info[1],
                             marshal.version)


def _artifact_key(store, fingerprint):
    from repro.evaluation.parallel import code_version
    return store.key(ARTIFACT_KIND, {
        "fingerprint": fingerprint,
        "code": code_version(ARTIFACT_KIND),
        "environment": _environment_key(),
    })


def _from_payload(payload):
    """The ``_CodegenCode`` a store payload holds, or None when it
    cannot be loaded (a checksummed entry of the wrong shape)."""
    try:
        namespace = {}
        exec(marshal.loads(base64.b64decode(payload["code"])), namespace)
        return _CodegenCode(
            namespace["_run"],
            [tuple(block) for block in payload["blocks"]],
            payload["jump"], payload["entry"], payload["n"],
            [(tuple(path_blocks), tuple(takens))
             for path_blocks, takens in payload["paths"]],
            None, fire=False, from_cache=True, tier=payload["tier"])
    except Exception:
        return None


def _to_payload(module, compiled):
    return {
        "entry": compiled.entry,
        "n": compiled.n,
        "tier": compiled.tier,
        "blocks": [list(block) for block in compiled.blocks],
        "jump": compiled.jump,
        "paths": [[list(path_blocks), list(takens)]
                  for path_blocks, takens in compiled.paths],
        "code": base64.b64encode(marshal.dumps(module)).decode("ascii"),
    }


#: sentinel memoising "the generator declined" on the Program
_DECLINED = object()


def codegen_code(program, persist=True):
    """Compile *program* for the codegen backend, or None when the
    generator declines (the reference loop then runs instead).

    Memoised on the Program and backed by the artefact store; *persist*
    gates the store *write* (reads always happen), so one-shot fuzz
    programs do not litter the store.  A compile under an armed
    ``emulator.codegen.block`` fault is neither memoised nor persisted
    — the hook must not leak into clean runs.
    """
    from repro.observability import tracing as observe
    fire = faults.armed(FAULT_SITE)
    cached = getattr(program, "_codegen", None)
    if cached is not None and not fire:
        return cached if cached is not _DECLINED else None
    with observe.span("codegen.compile") as span:
        compiled = _compile(program, persist, fire, span)
    if not fire:
        program._codegen = compiled if compiled is not None \
            else _DECLINED
    return compiled


def _compile(program, persist, fire, span, profile=None):
    from repro.benchmarks.suite import program_fingerprint
    from repro.evaluation.cache import open_store
    from repro.observability import tracing as observe
    tier = 1 if profile is None else 2
    fingerprint = program_fingerprint(program)
    span.set(fingerprint=fingerprint, fire=fire, tier=tier)
    store = None if fire else open_store()
    if store is not None:
        key = _artifact_key(store, fingerprint)
        if profile is None:
            try:
                payload = store.get(key)
            except OSError:
                payload = None   # unreadable cache dir: just compile
            compiled = _from_payload(payload) if payload else None
            if compiled is not None:
                observe.add("codegen.cache.hits")
                span.set(cached=True, blocks=len(compiled.blocks),
                         tier=compiled.tier)
                return compiled
            observe.add("codegen.cache.misses")
    try:
        source, blocks, jump, entry, paths = generate_source(
            program, fire=fire, profile=profile)
        module = compile(source, "<codegen:%s>" % program.entry, "exec")
        namespace = {}
        exec(module, namespace)
    except (SyntaxError, RecursionError, MemoryError, ValueError):
        # a program shape the generator cannot express (e.g. dispatch
        # nesting past the parser limit): decline, run the reference
        # loop
        observe.add("emulator.codegen.compile_declined")
        span.set(declined=True)
        return None
    compiled = _CodegenCode(namespace["_run"], blocks, jump, entry,
                            len(decode(program)[0]), paths, source,
                            fire=fire, from_cache=False, tier=tier)
    span.set(cached=False, blocks=len(blocks))
    if persist and store is not None:
        try:
            store.put(key, _to_payload(module, compiled), wait=False)
            observe.add("codegen.cache.writes")
        except OSError:
            pass             # cache write failure never fails the run
    return compiled


def _recompile_tier2(program, result, persist, heads=None):
    """Profile-guided recompilation after the first clean run.

    The replayed per-pc statistics of *result* (bit-identical to the
    reference loop's, so tier selection can never change observable
    behaviour) seed a retrace with real branch weights; the optimised
    code replaces the tier-1 memo and — when persisting — overwrites
    the store entry, so the *next* evaluation of this program loads
    the profiled build directly.  Returns None when the generator
    declines (the tier-1 code simply stays in place).
    """
    from repro.observability import tracing as observe
    profile = (result.counts, result.taken, heads or {})
    with observe.span("codegen.compile") as span:
        compiled = _compile(program, persist, False, span,
                            profile=profile)
    if compiled is not None:
        observe.add("codegen.tier2.compiles")
        program._codegen = compiled
    return compiled


# --------------------------------------------------------------------------
# Execution.

class CodegenEmulator:
    """Drop-in twin of :class:`~repro.emulator.machine.Emulator` running
    the compiled-function backend."""

    def __init__(self, program, max_steps=500_000_000, persist=True):
        self.program = program
        self.max_steps = max_steps
        self.persist = persist
        self.code, self.reg_index = decode(program)
        self.compiled = codegen_code(program, persist=persist)

    def _fallback(self):
        """Re-run on the reference loop (deterministic programs: exact
        same result, or the exact same fault with its precise pc)."""
        from repro.observability import tracing as observe
        observe.add("emulator.codegen.fallbacks")
        return Emulator(self.program, max_steps=self.max_steps).run()

    def run(self):
        compiled = self.compiled
        if compiled is None:
            # the generator declined: the reference loop is exact
            return Emulator(self.program, max_steps=self.max_steps).run()
        program = self.program
        regs = initial_registers(program, self.reg_index)
        # a prior clean run of this compiled code leaves the exact set
        # of addresses the (deterministic) program touches: pre-sizing
        # the memory dict makes every store an in-place update instead
        # of a growing insert.  Cells the run writes before reading
        # hold None, which no deterministic re-run can observe — any
        # impossible read raises and falls back honestly.
        if compiled.template is not None:
            mem = dict(compiled.template)
        else:
            mem = initial_memory(program)
        P = [0] * len(compiled.paths)
        out = []
        symbols = program.symbols

        def write_term(word):
            return render_term(mem, symbols, word)

        hook = _fire_hook if compiled.fire else None
        try:
            status = compiled.run(regs, mem, out.append, write_term,
                                  P, compiled.lengths, self.max_steps,
                                  compiled.jump, _Bailout, hook)
        except (_Bailout, KeyError, ZeroDivisionError, IndexError,
                TypeError):
            return self._fallback()

        # replay: expand path counts into the per-pc statistics (each
        # path's block and taken-edge lists are static; the flattened
        # pc lists are memoised on the compiled code)
        blocks = compiled.blocks
        pcs = compiled.pcs
        steps = 0
        counts = [0] * compiled.n
        taken = [0] * compiled.n
        for k, count in enumerate(P):
            if not count:
                continue
            flat = pcs[k]
            if flat is None:
                path_blocks, takens = compiled.paths[k]
                flat = pcs[k] = (
                    tuple(pc for dense in path_blocks
                          for pc in range(*blocks[dense][:2])),
                    tuple(blocks[dense][2] for dense in takens))
            path_pcs, taken_pcs = flat
            steps += count * len(path_pcs)
            for pc in path_pcs:
                counts[pc] += count
            for pc in taken_pcs:
                taken[pc] += count
        if steps > self.max_steps:
            # ran to completion but past the limit: the reference loop
            # would have faulted mid-run, so reproduce that exactly
            return self._fallback()
        result = EmulationResult(program, status, steps, "".join(out),
                                 counts, taken, backend="codegen")
        if not compiled.fire:
            if compiled.template is None:
                template = initial_memory(program)
                for address in mem:
                    if address not in template:
                        template[address] = None
                compiled.template = template
            if compiled.tier == 1 and steps >= _TIER2_STEPS:
                # trampoline pressure per arm: how often each path
                # *head* actually dispatched (inlined entries never
                # do) — this, not the raw entry count, is what the
                # tier-2 dispatch tree should weight
                heads = {}
                for k, count in enumerate(P):
                    if count:
                        start = blocks[compiled.paths[k][0][0]][0]
                        heads[start] = heads.get(start, 0) + count
                upgraded = _recompile_tier2(program, result,
                                            self.persist, heads)
                if upgraded is not None:
                    upgraded.template = compiled.template
                    self.compiled = upgraded
        return result


def _fire_hook():
    """The compiled-in fault site: ``bail`` forces the exact-fallback
    path from inside a compiled block; ``error`` raises InjectedFault
    (enacted by :func:`faults.fire` itself)."""
    if faults.fire(FAULT_SITE) == "bail":
        raise _Bailout
