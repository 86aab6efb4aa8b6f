"""Answer oracle: every response is checked against what its scripted
request must produce. A wrong answer raises WrongAnswer (the run aborts
non-zero); refused or failed requests are classified, not judged."""
import json

WER_GATE = 90.0  # the server's default verify/trace gate (percent)


class WrongAnswer(Exception):
    pass


def classify(response):
    """(kind, parsed) with kind in ok | failed | shed | retryable."""
    try:
        msg = json.loads(response)
    except (TypeError, ValueError):
        return "failed", None
    if msg.get("ok") is True:
        return "ok", msg
    if msg.get("shed") is True:
        return "shed", msg
    if msg.get("retryable") is True:
        return "retryable", msg
    return "failed", msg


def _require(cond, entry, msg, why):
    if not cond:
        raise WrongAnswer(f"{entry.id} ({entry.verb} {entry.model}): {why}: {json.dumps(msg)}")


def check(entry, msg, inserts):
    """Judges one ok response. `inserts` maps enroll insert ids to the
    total_bits they reported, so a follow-up extract reads its own insert."""
    req = lambda cond, why: _require(cond, entry, msg, why)
    req(msg.get("id") == entry.id and msg.get("cmd") == entry.verb, "response for another request")
    negative = entry.expect.get("negative", False)
    if entry.verb == "insert":
        req(msg.get("total_bits", 0) > 0, "insert stamped no bits")
        for key in ("codes", "record", "evidence"):
            req(msg.get(key) == entry.param(key), f"insert did not write {key}")
        inserts[entry.id] = msg["total_bits"]
    elif entry.verb == "extract":
        total, matched, wer = msg.get("total_bits", 0), msg.get("matched_bits"), msg.get("wer_pct")
        req(total > 0 and isinstance(wer, (int, float)), "extract reported no bits")
        if negative:
            req(wer < WER_GATE, "clean or wrong-device codes matched the record")
        else:
            req(wer == 100 and matched == total, "watermarked codes below 100% WER")
        if "insert" in entry.expect:
            req(inserts.get(entry.expect["insert"]) == total, "extract did not read its own insert")
    elif entry.verb == "verify":
        req(msg.get("verified") is (not negative),
            "clean or wrong-device codes verified" if negative else "owner's codes not verified")
    elif entry.verb == "trace":
        if negative:
            req(msg.get("device") == "" and msg.get("matched") is False,
                "clean or wrong-device codes traced to a device")
        else:
            req(msg.get("device") == entry.expect["device"] and msg.get("wer_pct") == 100,
                "leak not traced to its device at 100% WER")
    else:
        req(False, "unexpected verb")


def check_ppl(ref_bits, pass_bits):
    """Every timed perplexity() pass equals the materialize() reference bit for bit."""
    seen = [b for b in pass_bits.split(",") if b]
    if not seen or any(b != ref_bits for b in seen):
        raise WrongAnswer(f"perplexity {seen} differs from the materialize() reference {ref_bits}")
