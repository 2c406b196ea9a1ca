"""Regenerate the frozen golden pipeline output.

Run from the repository root after an intentional contract change:

    python tests/make_golden.py

The golden sequence inputs are regenerated deterministically from seed 0 by
posepipe.scenes.generate_scene; only the final pose file is committed.
"""

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from posepipe.config import PipelineConfig
from posepipe.pipeline import load_manifest, run_pipeline
from posepipe.poseio import document_text, pose_document
from posepipe.scenes import generate_scene

GOLDEN_SEED = 0
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_output.json")


def build_golden_text() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        manifest_path, _ = generate_scene(tmp, seed=GOLDEN_SEED)
        seq = run_pipeline(PipelineConfig(), load_manifest(manifest_path))
    return document_text(pose_document(seq))


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    text = build_golden_text()
    with open(GOLDEN_PATH, "w") as f:
        f.write(text)
    print(f"wrote {GOLDEN_PATH} ({len(text)} bytes)")
