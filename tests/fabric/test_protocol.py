"""Wire-protocol unit tests: framing, fuzz round-trips, unit codec."""

import json
import random

import pytest

from repro.campaign.jobs import expand_jobs
from repro.dist.protocol import (MAX_FRAME_BYTES, PROTOCOL_VERSION,
                                 FrameDecoder, ProtocolError, decode_unit,
                                 encode_frame, encode_unit,
                                 negotiate_version, register_unit,
                                 runner_for, validate_message)
from repro.formal.engine import EngineConfig


class TestFraming:
    def test_single_frame_round_trip(self):
        message = {"type": "heartbeat", "seq": 7}
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(message)) == [message]

    def test_many_frames_in_one_chunk(self):
        messages = [{"type": "heartbeat", "seq": n} for n in range(5)]
        chunk = b"".join(encode_frame(m) for m in messages)
        assert FrameDecoder().feed(chunk) == messages

    def test_byte_at_a_time_feeding(self):
        message = {"type": "event", "kind": "task_started",
                   "task_id": "A1/p0", "text": "newlines\nand \u00fcnicode"}
        decoder = FrameDecoder()
        out = []
        for byte in encode_frame(message):
            out.extend(decoder.feed(bytes([byte])))
        assert out == [message]

    def test_payload_may_contain_newlines_and_digits(self):
        # Size framing means payload bytes are never scanned for
        # delimiters — the exact reason it exists.
        message = {"type": "task", "task": {"unit": "x",
                                            "source": "42\n17\n\n99\n"}}
        assert FrameDecoder().feed(encode_frame(message)) == [message]

    def test_non_numeric_length_raises(self):
        with pytest.raises(ProtocolError, match="non-numeric"):
            FrameDecoder().feed(b"notanumber\n{}\n")

    def test_oversized_length_raises(self):
        with pytest.raises(ProtocolError, match="out of range"):
            FrameDecoder().feed(b"%d\n" % (MAX_FRAME_BYTES + 1))

    def test_missing_trailing_newline_raises(self):
        with pytest.raises(ProtocolError, match="trailing newline"):
            FrameDecoder().feed(b"2\n{}X")

    def test_bad_json_raises(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            FrameDecoder().feed(b"3\n{,}\n")

    def test_non_object_payload_raises(self):
        with pytest.raises(ProtocolError, match="expected an object"):
            FrameDecoder().feed(b"2\n[]\n")

    def test_runaway_header_raises(self):
        with pytest.raises(ProtocolError, match="header"):
            FrameDecoder().feed(b"1" * 64)


def _random_value(rng, depth=0):
    kinds = ["int", "float", "str", "bool", "none"]
    if depth < 3:
        kinds += ["list", "dict"]
    kind = rng.choice(kinds)
    if kind == "int":
        return rng.randint(-10**9, 10**9)
    if kind == "float":
        return round(rng.uniform(-1e6, 1e6), 6)
    if kind == "str":
        alphabet = "abc\n\t\"\\{}[]:,0123456789\u00e9\u4e2d"
        return "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(0, 40)))
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "none":
        return None
    if kind == "list":
        return [_random_value(rng, depth + 1)
                for _ in range(rng.randint(0, 4))]
    return {f"k{n}": _random_value(rng, depth + 1)
            for n in range(rng.randint(0, 4))}


class TestFuzzRoundTrip:
    def test_random_messages_random_chunking(self):
        """Any JSON-able message survives the codec under any chunking."""
        rng = random.Random(0xD15ED)
        for trial in range(25):
            messages = [
                {"type": rng.choice(["event", "result", "task"]),
                 **{f"f{n}": _random_value(rng)
                    for n in range(rng.randint(1, 5))}}
                for _ in range(rng.randint(1, 8))
            ]
            stream = b"".join(encode_frame(m) for m in messages)
            decoder = FrameDecoder()
            out = []
            position = 0
            while position < len(stream):
                step = rng.randint(1, max(1, len(stream) // 3))
                out.extend(decoder.feed(stream[position:position + step]))
                position += step
            # JSON round-trip normalization is the equality contract.
            expected = [json.loads(json.dumps(m)) for m in messages]
            assert out == expected, f"trial {trial}"


class TestMessages:
    def test_validate_accepts_all_documented_types(self):
        for message in (
                {"type": "hello", "version": 1},
                {"type": "task", "task": {}},
                {"type": "event", "kind": "task_started"},
                {"type": "result", "task_id": "x", "status": "ok"},
                {"type": "heartbeat", "seq": 3},
                {"type": "steal", "max": 2},
                {"type": "steal_grant", "task_ids": []},
                {"type": "shutdown"}):
            assert validate_message(message) is message

    def test_validate_rejects_unknown_type_and_missing_fields(self):
        with pytest.raises(ProtocolError, match="unknown message type"):
            validate_message({"type": "exec"})
        with pytest.raises(ProtocolError, match="missing field"):
            validate_message({"type": "result", "task_id": "x"})

    def test_version_negotiation(self):
        assert negotiate_version(PROTOCOL_VERSION) == PROTOCOL_VERSION
        for bad in (PROTOCOL_VERSION + 1, 0, None, "1"):
            with pytest.raises(ProtocolError, match="version mismatch"):
                negotiate_version(bad)


class TestUnitCodec:
    def test_property_task_round_trips_exactly(self):
        from repro.api.task import PropertyTask, execute_task

        task = PropertyTask(
            task_id="A3/p2", design="A3.buggy", dut_module="tlb",
            sources=("module tlb; endmodule", "// extra\n"),
            engine_config=EngineConfig(max_bound=8, max_frames=30,
                                       proof_engine="kind"),
            properties=("p_a", "p_b"), variant="buggy",
            defines=("FOO",), kinds=("assert", "live"),
            coi_sizes=(4, 17), order=(0, 3))
        wire = json.loads(json.dumps(encode_unit(task)))
        restored = decode_unit(wire)
        assert restored == task
        assert runner_for(restored) is execute_task

    def test_fuzzed_property_tasks_round_trip(self):
        from repro.api.task import PropertyTask

        rng = random.Random(1234)
        alphabet = "abcXYZ\n{}\u00e9_09 "
        for _ in range(20):
            def text():
                return "".join(rng.choice(alphabet)
                               for _ in range(rng.randint(0, 30)))
            count = rng.randint(0, 5)
            task = PropertyTask(
                task_id=text() or "t", design=text(), dut_module=text(),
                sources=tuple(text() for _ in range(rng.randint(1, 3))),
                engine_config=EngineConfig(
                    max_bound=rng.randint(0, 50),
                    max_frames=rng.randint(0, 99),
                    simple_path=rng.random() < 0.5),
                properties=tuple(f"p{n}{text()}" for n in range(count)),
                variant=rng.choice(["fixed", "buggy"]),
                defines=tuple(text() for _ in range(rng.randint(0, 2))),
                kinds=tuple(rng.choice(["assert", "cover", "live"])
                            for _ in range(count)),
                coi_sizes=tuple(rng.randint(0, 500)
                                for _ in range(count)),
                order=tuple(range(count)))
            wire = json.loads(json.dumps(encode_unit(task)))
            assert decode_unit(wire) == task

    def test_unknown_unit_is_a_clear_error(self):
        with pytest.raises(ProtocolError, match="unknown unit type"):
            decode_unit({"unit": "quantum-task"})
        with pytest.raises(ProtocolError, match="no wire codec"):
            encode_unit(object())
        # Campaign jobs never cross the wire: they run as property tasks.
        job = expand_jobs(case_ids=["A3"],
                          config=EngineConfig(max_bound=4))[0]
        with pytest.raises(ProtocolError, match="no wire codec"):
            encode_unit(job)

    def test_register_unit_extends_the_codec(self):
        class Custom:
            def __init__(self, job_id):
                self.job_id = job_id

        register_unit("custom-unit", Custom,
                      lambda unit: {"job_id": unit.job_id},
                      lambda data: Custom(data["job_id"]),
                      lambda unit: {"ran": unit.job_id})
        try:
            wire = encode_unit(Custom("c1"))
            assert wire["unit"] == "custom-unit"
            restored = decode_unit(wire)
            assert restored.job_id == "c1"
            assert runner_for(restored)(restored) == {"ran": "c1"}
        finally:
            from repro.dist.protocol import _UNIT_CODECS
            _UNIT_CODECS.pop("custom-unit", None)
