"""Dead code elimination over the structured IR.

Removes pure instructions whose results are unused, loops whose bodies have
no effects and whose results are unused, and If arms collapsed by constant
folding.  The online compiler relies on this to sweep away realignment
chains after it decides to use misaligned/aligned loads ("The JIT compiler
can remove some of this code by recognizing dead code", §III-C.d) — our
structured IR keeps that linear-time.
"""

from __future__ import annotations

from ..ir import (
    Block,
    ForLoop,
    Function,
    If,
    Instr,
    Value,
    Yield,
)

__all__ = ["eliminate_dead_code"]


def _block_has_effects(block: Block) -> bool:
    for instr in block.instrs:
        if isinstance(instr, ForLoop):
            if _block_has_effects(instr.body):
                return True
        elif isinstance(instr, If):
            if _block_has_effects(instr.then_block) or _block_has_effects(
                instr.else_block
            ):
                return True
        elif isinstance(instr, Yield):
            continue
        elif instr.has_side_effects:
            return True
    return False


def _mark(fn: Function) -> set[int]:
    """Mark live values: reachable from effectful instructions' operands."""
    live: set[int] = set()
    worklist: list[Value] = []

    def use(v: Value) -> None:
        if v.id not in live:
            live.add(v.id)
            worklist.append(v)

    def scan_block(block: Block) -> None:
        for instr in block.instrs:
            if isinstance(instr, ForLoop):
                scan_block(instr.body)
                # Loop control is needed if the loop survives at all; handled
                # during sweep.  Mark bounds/inits lazily via results/effects.
                if _block_has_effects(instr.body) or any(
                    r.id in live for r in instr.results
                ):
                    for op in instr.operands:
                        use(op)
            elif isinstance(instr, If):
                scan_block(instr.then_block)
                scan_block(instr.else_block)
                if (
                    _block_has_effects(instr.then_block)
                    or _block_has_effects(instr.else_block)
                    or any(r.id in live for r in instr.results)
                ):
                    use(instr.cond)
            elif isinstance(instr, Yield):
                # Yield values are live iff their consumer (carried arg /
                # loop result / if result) is live; approximated below by
                # marking all yields of surviving regions during sweep.
                continue
            elif instr.has_side_effects:
                for op in instr.operands:
                    use(op)

    # Fixed point: region liveness can cascade outward.
    defs: dict[int, Instr] = {}

    def index_defs(block: Block) -> None:
        for instr in block.instrs:
            defs[instr.id] = instr
            if isinstance(instr, ForLoop):
                index_defs(instr.body)
            elif isinstance(instr, If):
                index_defs(instr.then_block)
                index_defs(instr.else_block)

    index_defs(fn.body)

    # Map from loop-result/if-result/block-arg ids back to their producers.
    producers: dict[int, tuple] = {}

    def index_producers(block: Block) -> None:
        for instr in block.instrs:
            if isinstance(instr, ForLoop):
                for r in instr.results:
                    producers[r.id] = ("loop_result", instr, r.index)
                for k, arg in enumerate(instr.carried):
                    producers[arg.id] = ("carried", instr, k)
                index_producers(instr.body)
            elif isinstance(instr, If):
                for r in instr.results:
                    producers[r.id] = ("if_result", instr, r.index)
                index_producers(instr.then_block)
                index_producers(instr.else_block)

    index_producers(fn.body)
    scan_block(fn.body)

    while worklist:
        v = worklist.pop()
        info = producers.get(v.id)
        if info is not None:
            kind, region, index = info
            if kind == "loop_result":
                term = region.body.terminator
                if isinstance(term, Yield):
                    use(term.values[index])
                for op in region.operands:
                    use(op)
            elif kind == "carried":
                term = region.body.terminator
                if isinstance(term, Yield):
                    use(term.values[index])
                use(region.init_values[index])
                for op in (region.lower, region.upper, region.step):
                    use(op)
            elif kind == "if_result":
                for blk in (region.then_block, region.else_block):
                    term = blk.terminator
                    if isinstance(term, Yield):
                        use(term.values[index])
                use(region.cond)
        producer = defs.get(v.id)
        if producer is not None and not isinstance(producer, (ForLoop, If)):
            for op in producer.operands:
                use(op)
    return live


def _sweep_block(block: Block, live: set[int]) -> int:
    removed = 0
    kept: list[Instr] = []
    for instr in block.instrs:
        if isinstance(instr, ForLoop):
            removed += _sweep_block(instr.body, live)
            needed = _block_has_effects(instr.body) or any(
                r.id in live for r in instr.results
            )
            if not needed:
                removed += 1
                continue
        elif isinstance(instr, If):
            removed += _sweep_block(instr.then_block, live)
            removed += _sweep_block(instr.else_block, live)
            needed = (
                _block_has_effects(instr.then_block)
                or _block_has_effects(instr.else_block)
                or any(r.id in live for r in instr.results)
            )
            if not needed:
                removed += 1
                continue
        elif isinstance(instr, Yield):
            pass
        elif not instr.has_side_effects and instr.id not in live:
            removed += 1
            continue
        kept.append(instr)
    block.instrs = kept
    return removed


def _prune_carried(block: Block, live: set[int]) -> int:
    """Drop loop-carried slots whose arg and result are both dead.

    Without this, a dead reduction chain stays alive through its Yield use.
    """
    pruned = 0
    for instr in block.instrs:
        if isinstance(instr, ForLoop):
            pruned += _prune_carried(instr.body, live)
            term = instr.body.terminator
            keep = [
                k
                for k in range(len(instr.carried))
                if instr.carried[k].id in live or instr.results[k].id in live
            ]
            if len(keep) != len(instr.carried):
                pruned += len(instr.carried) - len(keep)
                inits = instr.init_values
                instr._operands = [
                    instr.lower,
                    instr.upper,
                    instr.step,
                    *[inits[k] for k in keep],
                ]
                iv = instr.body.args[0]
                new_args = [iv]
                for pos, k in enumerate(keep):
                    arg = instr.body.args[k + 1]
                    arg.index = pos + 1
                    new_args.append(arg)
                instr.body.args = new_args
                new_results = []
                for pos, k in enumerate(keep):
                    r = instr.results[k]
                    r.index = pos
                    new_results.append(r)
                instr.results = new_results
                if isinstance(term, Yield):
                    term._operands = [term.values[k] for k in keep]
        elif isinstance(instr, If):
            pruned += _prune_carried(instr.then_block, live)
            pruned += _prune_carried(instr.else_block, live)
    return pruned


def eliminate_dead_code(fn: Function) -> int:
    """Remove dead instructions from ``fn`` in place; returns count removed."""
    total = 0
    while True:
        live = _mark(fn)
        removed = _sweep_block(fn.body, live)
        removed += _prune_carried(fn.body, live)
        total += removed
        if removed == 0:
            return total
