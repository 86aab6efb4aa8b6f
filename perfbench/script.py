"""Seeded request scripts for the serving workloads.

The workload seed alone fixes every request: verb, spec, id, artifact path
(and so clean versus watermarked codes), and the answer the oracle expects.
The program under test only ever sees the generated lines.
"""
import itertools
import random
from dataclasses import dataclass, field

# (model, quant) specs. The 2-shard ring (ring_shard below) homes the two
# dispute specs on different workers, and the two enroll specs on
# different shards too.
DISPUTE_SPECS = (("opt-125m-sim", "int4"), ("llama2-13b-sim", "int4"))
ENROLL_SPECS = (("llama2-70b-sim", "int4"), ("opt-30b-sim", "int8"))
PPL_SPEC = ("llama2-70b-sim", "int4")

FLEET_DEVICES = 4
NEGATIVE_SHARE = 0.25
DISPUTE_VERBS = (("extract", 0.4), ("verify", 0.3), ("trace", 0.3))
ENROLL_SLOTS = 4  # artifact ring per connection
ENROLL_WINDOW = 8  # requests outstanding per connection


@dataclass(frozen=True)
class Entry:
    """One scripted request plus what a correct answer must say."""
    id: str
    verb: str
    model: str
    quant: str
    params: tuple  # ((key, value), ...) after id/model/quant
    expect: dict = field(hash=False, compare=False)

    def body(self):
        """The request's parameters: the HTTP POST body."""
        pairs = (("id", self.id), ("model", self.model), ("quant", self.quant)) + self.params
        return " ".join(f"{k}={v}" for k, v in pairs)

    def line(self):
        return f"{self.verb} {self.body()}"

    def param(self, key):
        return dict(self.params)[key]


def art_dir(model):
    """Per-spec artifact directory of the dispute workload (relative)."""
    return f"art/{model}"


def device_id(k):
    """Device names `emmark_cli enroll` assigns."""
    return f"edge-device-{k}"


def dispute_entries(seed, door):
    """Endless dispute script for one client (`door` is "line" or "http")."""
    rng = random.Random(f"dispute/{seed}/{door}")
    verbs = [v for v, _ in DISPUTE_VERBS]
    weights = [w for _, w in DISPUTE_VERBS]
    for n in itertools.count():
        model, quant = rng.choice(DISPUTE_SPECS)
        verb = rng.choices(verbs, weights)[0]
        negative = rng.random() < NEGATIVE_SHARE
        art = art_dir(model)
        expect = {"negative": negative}
        if negative:
            codes = f"{art}/{rng.choice(('clean', 'rogue'))}.codes"
        elif verb == "trace":
            k = rng.randrange(FLEET_DEVICES)
            codes = f"{art}/fleet/{device_id(k)}.codes"
            expect["device"] = device_id(k)
        else:
            codes = f"{art}/owner.codes"
        source = {"extract": ("record", f"{art}/owner.rec"),
                  "verify": ("evidence", f"{art}/owner.evid"),
                  "trace": ("set", f"{art}/fleet.fps")}[verb]
        yield Entry(f"s{seed}{door[0]}{n}", verb, model, quant, (source, ("codes", codes)),
                    expect)


def enroll_entries(seed, conn):
    """Endless enroll script for one connection: insert, then extract of
    the files that insert wrote, over a per-connection ring of slots."""
    rng = random.Random(f"enroll/{seed}/{conn}")
    for n in itertools.count():
        model, quant = rng.choice(ENROLL_SPECS)
        stem = f"slots/c{conn}/s{n % ENROLL_SLOTS}"
        files = (("codes", f"{stem}.codes"), ("record", f"{stem}.rec"))
        ins = f"s{seed}c{conn}n{n}i"
        yield Entry(ins, "insert", model, quant,
                    (("seed-from-id", "1"),) + files + (("evidence", f"{stem}.evid"),),
                    {"slot": stem})
        yield Entry(f"s{seed}c{conn}n{n}x", "extract", model, quant,
                    (("record", f"{stem}.rec"), ("codes", f"{stem}.codes")),
                    {"insert": ins})


def script_text(workload, seed, count):
    """The first `count` lines of every client's script (self-test input)."""
    streams = ([dispute_entries(seed, d) for d in ("line", "http")]
               if workload == "dispute" else [enroll_entries(seed, c) for c in (0, 1)])
    return "".join(e.line() + "\n" for s in streams for e in itertools.islice(s, count))


# --- the serving ring, mirrored from src/cli/router.cpp ----------------------

MASK = (1 << 64) - 1


def _ring_hash(text):
    h = 0xcbf29ce484222325
    for byte in text.encode():
        h = ((h ^ byte) * 0x100000001b3) & MASK
    h = (h + 0x9e3779b97f4a7c15) & MASK
    z = h
    z = ((z ^ (z >> 30)) * 0xbf58476d1ce4e5b9) & MASK
    z = ((z ^ (z >> 27)) * 0x94d049bb133111eb) & MASK
    return z ^ (z >> 31)


def spec_key(model, quant):
    family_int8 = "smoothquant-int8" if model.startswith("opt") else "llm.int8"
    return f"{model}|{'awq-int4' if quant == 'int4' else family_int8}"


def ring_shard(model, quant, shards=2, vnodes=64):
    """Home shard of a spec on the consistent-hash ring."""
    points = sorted((_ring_hash(f"shard-{s}#{v}"), s)
                    for s in range(shards) for v in range(vnodes))
    point = _ring_hash(spec_key(model, quant))
    for p, s in points:
        if p > point:
            return s
    return points[0][1]
