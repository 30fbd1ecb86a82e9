"""Independent evaluators for the instance files the benchmark generates.

Verdicts are checked here, not with the program's own model checker:
a SAT model must drive the objective (first output) to 1, a DIMACS model
must satisfy every clause, and a `cec` counterexample must make the two
netlists disagree on some output. Evaluation is bit-parallel: a signal's
value is a Python int whose bit k is its value under pattern k.
"""

import re

_PORT = re.compile(r"^\s*(INPUT|OUTPUT)\s*\(\s*([^\s)]+)\s*\)\s*$", re.IGNORECASE)


class Bench:
    """A parsed `.bench` netlist, gates kept in a topological order."""

    def __init__(self, text):
        self.inputs, self.outputs, gates = [], [], {}
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            port = _PORT.match(line) if "=" not in line else None
            if port:
                kind, name = port.group(1).upper(), port.group(2)
                (self.inputs if kind == "INPUT" else self.outputs).append(name)
                continue
            name, _, rest = line.partition("=")
            op, paren, args = rest.partition("(")
            if not paren or not args.rstrip().endswith(")"):
                raise ValueError(f"unparsable .bench line: {line!r}")
            fanins = [f.strip() for f in args.rstrip()[:-1].split(",") if f.strip()]
            gates[name.strip()] = (op.strip().upper(), fanins)
        self.gates = gates
        self.order = self._topological(gates)

    def _topological(self, gates):
        known = set(self.inputs)
        # Files written in topological order need no search.
        for name, (_, fanins) in gates.items():
            if not all(f in known for f in fanins):
                break
            known.add(name)
        else:
            return list(gates)
        known, order = set(self.inputs), []
        for root in gates:
            stack = [(root, False)]
            while stack:
                name, expanded = stack.pop()
                if name in known:
                    continue
                if name not in gates:
                    raise ValueError(f"undefined signal {name!r}")
                if expanded:
                    known.add(name)
                    order.append(name)
                    continue
                stack.append((name, True))
                stack.extend((f, False) for f in gates[name][1] if f not in known)
        return order

    def evaluate(self, patterns, width):
        """Output values; `patterns[i]` is the int of input i's bits."""
        mask = (1 << width) - 1
        v = dict(zip(self.inputs, patterns))
        for name in self.order:
            op, fanins = self.gates[name]
            args = [v[f] for f in fanins]
            if op in ("AND", "NAND"):
                r = mask
                for a in args:
                    r &= a
            elif op in ("OR", "NOR"):
                r = 0
                for a in args:
                    r |= a
            elif op in ("XOR", "XNOR"):
                r = 0
                for a in args:
                    r ^= a
            elif op in ("BUF", "BUFF", "NOT"):
                r = args[0]
            else:
                raise ValueError(f"unsupported gate {op}")
            if op in ("NAND", "NOR", "XNOR", "NOT"):
                r ^= mask
            v[name] = r
        return [v[o] for o in self.outputs]

    def outputs_under(self, bits):
        """Output values (0/1) under one assignment given as a '0101' string."""
        if len(bits) != len(self.inputs):
            raise ValueError(f"{len(bits)} input bits for {len(self.inputs)} inputs")
        return self.evaluate([int(b) for b in bits], 1)

    def satisfied_by(self, bits):
        """True when the assignment drives the objective (first output) to 1."""
        return self.outputs_under(bits)[0] == 1


class Aiger:
    """A parsed ASCII AIGER (`aag`) netlist without latches."""

    def __init__(self, text):
        lines = text.split("\n")
        header = lines[0].split()
        if header[0] != "aag":
            raise ValueError("not an ASCII AIGER file")
        _, i, latches, o, a = (int(x) for x in header[1:6])
        if latches:
            raise ValueError("latches are not supported")
        self.inputs = [int(lines[1 + k]) for k in range(i)]
        self.outputs = [int(lines[1 + i + k]) for k in range(o)]
        self.ands = [tuple(int(x) for x in lines[1 + i + o + k].split()) for k in range(a)]

    def outputs_under(self, bits):
        if len(bits) != len(self.inputs):
            raise ValueError(f"{len(bits)} input bits for {len(self.inputs)} inputs")
        value = {0: 0}
        for lit, b in zip(self.inputs, bits):
            value[lit >> 1] = int(b)

        def lit_value(lit):
            return value[lit >> 1] ^ (lit & 1)

        for lhs, r0, r1 in self.ands:
            value[lhs >> 1] = lit_value(r0) & lit_value(r1)
        return [lit_value(lit) for lit in self.outputs]

    def satisfied_by(self, bits):
        """True when the assignment drives the objective (first output) to 1."""
        return self.outputs_under(bits)[0] == 1


class Cnf:
    """A parsed DIMACS CNF formula."""

    def __init__(self, text):
        body, self.nvars = [], None
        for line in text.splitlines():
            if line.startswith("p"):
                self.nvars = int(line.split()[2])
            elif not line.startswith("c"):
                body.append(line)
        if self.nvars is None:
            raise ValueError("no DIMACS header")
        self.clauses, clause = [], []
        for lit in map(int, " ".join(body).split()):
            if lit:
                clause.append(lit)
            else:
                self.clauses.append(clause)
                clause = []

    def satisfied_by(self, bits):
        """True when the assignment ('0101', variable 1 first) satisfies
        every clause."""
        if len(bits) != self.nvars:
            raise ValueError(f"{len(bits)} bits for {self.nvars} variables")
        true = {k + 1 for k, b in enumerate(bits) if b == "1"}
        true.update(-(k + 1) for k, b in enumerate(bits) if b != "1")
        return all(not true.isdisjoint(c) for c in self.clauses)


def load(fmt, text):
    """The evaluator for an instance in `bench`, `aiger` or `dimacs` format."""
    return {"bench": Bench, "aiger": Aiger, "dimacs": Cnf}[fmt](text)


def distinguishes(left, right, bits):
    """True when the input makes some output pair of two netlists differ."""
    return left.outputs_under(bits) != right.outputs_under(bits)


def plant_difference(text, rng, tries=64, width=256):
    """Mutates one AND gate of `.bench` text into an OR gate, keeping a
    mutation that random simulation shows to be observable. Returns the new
    text and a distinguishing input, found here by the benchmark itself."""
    original = Bench(text)
    lines = text.split("\n")
    candidates = [k for k, line in enumerate(lines) if "= AND(" in line]
    for _ in range(tries):
        k = rng.choice(candidates)
        mutated = list(lines)
        mutated[k] = mutated[k].replace("= AND(", "= OR(", 1)
        mutated_text = "\n".join(mutated)
        changed = Bench(mutated_text)
        patterns = [rng.getrandbits(width) for _ in original.inputs]
        diff = 0
        for a, b in zip(original.evaluate(patterns, width), changed.evaluate(patterns, width)):
            diff |= a ^ b
        if diff:
            bit = (diff & -diff).bit_length() - 1
            witness = "".join(str(p >> bit & 1) for p in patterns)
            assert distinguishes(original, changed, witness)
            return mutated_text, witness
    raise RuntimeError("no observable mutation found")

