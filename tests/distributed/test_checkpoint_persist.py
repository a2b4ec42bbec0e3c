"""Kill during checkpoint persist: whatever instant the writer dies at, a
fresh process loads one *whole* checkpoint — weights, epoch, Adam state and
every RNG cursor from the same epoch.

Checkpoints overwrite one fingerprint every epoch.  When an entry was an
npz + JSON pair published by two renames, a death between them left
epoch-N+1 arrays beside epoch-N metadata, and the pair loaded cleanly; an
entry is now one wire frame behind one rename, so there is no between.
"""

import os

import pytest

from repro.core import ArtifactCache
from repro.distributed.recovery import load_checkpoint, save_checkpoint
from repro.distributed.wire import pack_obj

_FP = "ab" * 32  # a cluster fingerprint


class _Killed(BaseException):
    """The writer process dying (a BaseException: nothing in the save path
    may catch it and carry on)."""


#: The parts of a checkpoint a restore consumes.
_FIELDS = {
    "epoch": lambda c: c["epoch"],
    "weights": lambda c: c["model"],
    "adam moments": lambda c: [c["adam"]["m"], c["adam"]["v"]],
    "adam t": lambda c: c["adam"]["t"],
    "sampler cursors": lambda c: c["samplers"],
}


def _epoch_of_each_field(loaded, candidates):
    """Which candidate checkpoint's epoch each restored field came from."""
    return {name: [c["epoch"] for c in candidates
                   if pack_obj(get(loaded)) == pack_obj(get(c))]
            for name, get in _FIELDS.items()}


@pytest.mark.parametrize("first_rename_lands", [False, True])
def test_writer_killed_mid_persist_never_tears_the_checkpoint(
        tmp_path, monkeypatch, make_checkpoint, first_rename_lands):
    older, newer = make_checkpoint(1), make_checkpoint(2)
    save_checkpoint(ArtifactCache(str(tmp_path)), _FP, older)

    real_replace = os.replace

    def replace_and_die(src, dst):
        if first_rename_lands:
            real_replace(src, dst)
        raise _Killed()

    monkeypatch.setattr(os, "replace", replace_and_die)
    with pytest.raises(_Killed):
        save_checkpoint(ArtifactCache(str(tmp_path)), _FP, newer)
    monkeypatch.undo()

    # The "next process": no memory tier, only what reached the directory.
    loaded = load_checkpoint(ArtifactCache(str(tmp_path)), _FP)
    assert loaded is not None
    # Killed before the rename: the previous checkpoint.  Killed right
    # after it: the new one, complete — there is no second rename to miss.
    # Either way every field is from that one epoch.
    whole = (newer if first_rename_lands else older)["epoch"]
    assert _epoch_of_each_field(loaded, (older, newer)) == {
        name: [whole] for name in _FIELDS}


def test_entry_is_one_file_published_by_one_rename(tmp_path, monkeypatch,
                                                   make_checkpoint):
    renames = []
    real_replace = os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst: (
        renames.append(os.path.basename(dst)), real_replace(src, dst)))
    cache = ArtifactCache(str(tmp_path))
    save_checkpoint(cache, _FP, make_checkpoint(1))
    save_checkpoint(cache, _FP, make_checkpoint(2))
    assert renames == [f"checkpoint-{_FP}.rpwf"] * 2
    assert os.listdir(tmp_path) == [f"checkpoint-{_FP}.rpwf"]
