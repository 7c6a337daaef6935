"""Golden SHA-256 digests of every deterministic artifact.

Reruns agreeing with each other say nothing about whether a change kept
the bytes; these constants do.  They cover the transcript container and
its JSON twin for the three worked presets under every kind and seeds
0-2 (plus p-lfr in broadcast mode) and for every kind at r = 1, at r = 4
and at engine-c10's C = 10 shape, the ``verify`` reports of every suite
and of three security instances (two of them also by forced
enumeration), and the figure presets' ``curves.csv``.  The privacy
suite's report also pins its s-lfr control.  ``simulate`` and the
security suite also run under ``python -O``.  A change that alters any
of them changes what a (config, seed) pair produces and must say so.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from maclfr.cli import main
from maclfr.presets import WORKED_CONFIGURATIONS
from maclfr.schemes import SchemeConfig, SchemeKind, simulate
from maclfr.topology import TopologySpec
from maclfr.transcript import simulation_to_bytes, simulation_to_json

SRC = Path(__file__).resolve().parents[1] / "src"
SEEDS = (0, 1, 2)
BROADCAST = "p-lfr-broadcast"

# "<preset>/<kind>/<seed>" -> digest of simulation_to_bytes (transcript.bin).
TRANSCRIPT_BIN = {
    "pairs-of-three/sp-lfr/0":
        "c1f41a1d33c59e5fbbbcd2f9ebf702537dd6850f31297a77ce19ae65a051f542",
    "pairs-of-three/sp-lfr/1":
        "a838aae684330c3c347781eac0590582a90a1428ca3aa8e00129d5342307003f",
    "pairs-of-three/sp-lfr/2":
        "ad8a1449d35c187b98a27c84949a31fdeaa1d40566f4c28370db829108ea80e7",
    "pairs-of-three/p-lfr/0":
        "015d1f64aecfaf506e02630c22bd68546e0d89df659ba356edc54d64a85a8456",
    "pairs-of-three/p-lfr/1":
        "8c9aff4028c530d72778df15875ccc53ddb8e775d6ac3de3815cee14524608b1",
    "pairs-of-three/p-lfr/2":
        "447b486765c665cb178671ab1422c289e0e984eb7944efea08fb9dfabdb44b18",
    "pairs-of-three/s-lfr/0":
        "b8af21ae428d283b7704a302639137a4cbbd203bed432a98ca45b2ff38ae4b01",
    "pairs-of-three/s-lfr/1":
        "e61bb42b13887e279a6c222041b63e55276e1b1c2a2b2cb1c771a4ef9d0c05b2",
    "pairs-of-three/s-lfr/2":
        "a110c53de10f3e223d205c8ec118faffbd3bbbe36da29404190ca48c278ed572",
    "pairs-of-three/is-lfr/0":
        "9b01713f0de06e2f9c64da80c4109b904f88a6ffcbba32685c2d3cf94d90265e",
    "pairs-of-three/is-lfr/1":
        "78467dbeed5ae8f2aa8bf060e6320f91f3d6e269191564ac64c47188ff4c74ae",
    "pairs-of-three/is-lfr/2":
        "3af756700b2ac83c831019e270a19e4db01c77712159e629c3c1359dcc620ab9",
    "pairs-of-three/lfr/0":
        "e4c1a8ccaecccbba209ecc53ca3459d9a0dc4e83a01f8463a5e519bbbd8e77c0",
    "pairs-of-three/lfr/1":
        "4c0e75700826a3f0258b5e9030f951cc09d39b54782fe987902c1bb6512bf54d",
    "pairs-of-three/lfr/2":
        "4fbbb784673694e5d28ab8f2419d3b7746634004000e64743e7027f3b10bd658",
    "pairs-of-three/p-lfr-broadcast/0":
        "82093f905dba1bb323a77991da62b7ba583a040dc782410e90a0909797fdf660",
    "pairs-of-three/p-lfr-broadcast/1":
        "865ee6073a5d92cb0180e27e1151c9f482181217529a591252c139bf9a49b985",
    "pairs-of-three/p-lfr-broadcast/2":
        "e51e1f5240df265d2a02f26dba75ece86dbc44794b172e78771499621058a2ae",
    "triples-of-five/sp-lfr/0":
        "449bde3a7b62f3761687d5e2d55dee25d103f831104892fb742434059c3088f6",
    "triples-of-five/sp-lfr/1":
        "99b3401a1aa1fcfe4f8b130495939c0ce92e8ac207ae0736d667fcac3a83de42",
    "triples-of-five/sp-lfr/2":
        "62a97e9324af75159ff1ad750fe2bf6e47f95300133c133cca7adaab95adf4a2",
    "triples-of-five/p-lfr/0":
        "50826bb86c6d3ef752320b0d75ff325c7ff24a18be8324f83899010739f3df6d",
    "triples-of-five/p-lfr/1":
        "4e78a301c3bdc1f5b6a3fe0c8cc4b8f35b074fe94b6611e25a0534154a52c1a8",
    "triples-of-five/p-lfr/2":
        "3ce20859bcdb0443964003b44487732d54c628c4d5e0e82ecef48b4f7921a3e0",
    "triples-of-five/s-lfr/0":
        "f752a3f86c2576e9aa2a7d0e50b0d4a45cbe7945e048ecf7011cf10aa287073e",
    "triples-of-five/s-lfr/1":
        "f3f441e48628910a9d8be482e7dddaf4cbf1b4cff095c206f886a0b53ada1bfe",
    "triples-of-five/s-lfr/2":
        "f4ea6f69441552860433aea33d86a7b8ec0cafcd97b8e7d2c0e2d531e587e26a",
    "triples-of-five/is-lfr/0":
        "495b40cd844657fc2c9fbad1da0f2b16282937d001c96344d5fe41a219be2813",
    "triples-of-five/is-lfr/1":
        "2aca16a8664f14d19ffdb990474cfab58c107abec881d304aca2a9c3e6d2d1b9",
    "triples-of-five/is-lfr/2":
        "d6da1fae43c19d7324111204564841ad04049067c0d42fd158bd16b80ea4a1dd",
    "triples-of-five/lfr/0":
        "6ebf167070f32e2240207ccd1167aa8535d954fab4aeecee40e561a050bd09f8",
    "triples-of-five/lfr/1":
        "40230cacf15eed4a2f64ccb901c4794eacb05d671affbfd3a13b7b919e44ee85",
    "triples-of-five/lfr/2":
        "603955b930bccdfabfcbaf15b3023a0aa6a5a53709fccc1311d0b72bc281cd7c",
    "triples-of-five/p-lfr-broadcast/0":
        "9226dd02316f837ed94cf4278c65e2cd01da5c48966f45573e4dbf9a9054562a",
    "triples-of-five/p-lfr-broadcast/1":
        "4191a6777353e96c7df241e50ceb070623e1ea5f676e6afa321818e99971ce75",
    "triples-of-five/p-lfr-broadcast/2":
        "8313aa03e45f9c84d8ee9d0413bce5909da6a771f5e5205130af75e8983e07b4",
    "pairs-of-five/sp-lfr/0":
        "8c2c032c979de8dccbe2c223f65bdcacbf552892d9b3dae3dd6ce5b5275f941b",
    "pairs-of-five/sp-lfr/1":
        "9704f25a88ad2d36ef7f1772a8687463de178c90db8472bc6a92b2ad81bbe1d9",
    "pairs-of-five/sp-lfr/2":
        "c4263f90af873ad4118ff6e8ffd02823344ead9e48b74bcefdc230d32df84eae",
    "pairs-of-five/p-lfr/0":
        "b25dbd495b967f4d026ba13714ab50464cce37e1d8e587d5495e329fa4567c75",
    "pairs-of-five/p-lfr/1":
        "0505c67085c0694021469e8d805ba66376173db672431f28be5aae2d69def963",
    "pairs-of-five/p-lfr/2":
        "d82741607515624c852f0a7ef6c3a36cfda6ed7d4ae814c7e8f17353c1415686",
    "pairs-of-five/s-lfr/0":
        "4ab0417055651551ee6e7102e4bdb5d7609d6614069ccc8ab02d189e465b8de9",
    "pairs-of-five/s-lfr/1":
        "9b7ec874d995809808102ac723b5a272f2614b836e5b135f9d14dbffc0a081eb",
    "pairs-of-five/s-lfr/2":
        "8dfd432120d8129f31358112ded30abfab3cdd2a1b2e77f5ac4b10287050df20",
    "pairs-of-five/is-lfr/0":
        "18cf585cfacd1a497e4d7ceaca31a8dd83ccc22bde87b4895638bab88de5fd71",
    "pairs-of-five/is-lfr/1":
        "9e0fc372c8626d1511b4a09949bca64ac37029cf6cad1e6e40c58828ebc988c0",
    "pairs-of-five/is-lfr/2":
        "28c5b7ab94d98c1deb32d0b0b418df6f1702c30ee74d3a50b6ac09cfb8fdb73d",
    "pairs-of-five/lfr/0":
        "2a96fbe402fd3fac28392eb6b8cf052187e64e7420f65222999d6a647fcfe731",
    "pairs-of-five/lfr/1":
        "5df210e97c20048557a6411c17f0926bbef14836220c44e3411dfb5276a1806a",
    "pairs-of-five/lfr/2":
        "2c9eb10837318fdd8083911d23e59dcdcd71369293c74b7d6e3ea3e36ec02e33",
    "pairs-of-five/p-lfr-broadcast/0":
        "6377d3d75466b34627ca7564cd839a2a4eeb609369ea8f92dc4929edcb46d827",
    "pairs-of-five/p-lfr-broadcast/1":
        "fc9dbffb71e7833feec89a194d83f3f2bbc074ff85fc04a55899be9cf0d79332",
    "pairs-of-five/p-lfr-broadcast/2":
        "3aeac4e9b50ecbaf4747bb2a65024f9e6577d7880582f61ad0b4888d36b89b78",
}

# The same runs -> digest of simulation_to_json (transcript.json).
TRANSCRIPT_JSON = {
    "pairs-of-three/sp-lfr/0":
        "5e08d3e0ed16523f874847ebd35c45ba46506fe9410553c9e367e6c45c6d5eef",
    "pairs-of-three/sp-lfr/1":
        "a3acbd3493b8e07509ce8591973e7e63bb01acf39a717e9d7eac2a8e3ccd7ff0",
    "pairs-of-three/sp-lfr/2":
        "ed875fd5f58c01e28b2bc048bc3605a83f4073375f8c543d6bc7841ff64799c2",
    "pairs-of-three/p-lfr/0":
        "5d3ce7234423fee0ac9779bc836d6f80a607ef8bb15e5e31b46f3d7321e5ec73",
    "pairs-of-three/p-lfr/1":
        "d632217c5cbdf4a504eaf81b92d3a3b7d9eb82a967ed4a4ac695022e16615f1c",
    "pairs-of-three/p-lfr/2":
        "43bb73afbba1a2c715220f0e5c460a1becfad4dac388b0a1dfe9f8bdd6a0329d",
    "pairs-of-three/s-lfr/0":
        "20571b3859524c8caa70e0db300c2e359aa278379c684d080d065919fe94d504",
    "pairs-of-three/s-lfr/1":
        "4665668a90ed4f407e8a8aef6f7ade22a19b0dc04e402232377c3cc27d1df986",
    "pairs-of-three/s-lfr/2":
        "d6c17bd5dd5887d54cf79346d11d172ac9de60bd819548e9af384d195363740f",
    "pairs-of-three/is-lfr/0":
        "fa6547fc748074e6661f8e155cc685dfb7bb753ee34368113c782ae1b8c18dd5",
    "pairs-of-three/is-lfr/1":
        "2d26ed8893576cd7928f843329b76649814f65ec06923d9f0536a368cbb1de57",
    "pairs-of-three/is-lfr/2":
        "95cb23b5ebbb5dcb8f55571831d40eb61c2a2662305e7cf12e8323a345bc18d6",
    "pairs-of-three/lfr/0":
        "925b6a7f6bb4652d6ebcfe925a9637746e0418335a2edf643030e39f514fff28",
    "pairs-of-three/lfr/1":
        "214ab7f674baf0bb985501de10229931b3bca02b27b8b5acdf8bf07e9cfd9f43",
    "pairs-of-three/lfr/2":
        "889eec3b601dbc7839bfdeec19bf5a78138da28d3ad03c3b78edc5d11d4d6581",
    "pairs-of-three/p-lfr-broadcast/0":
        "98689db80bb0021986c3e08112778ecbf827fdc88213590e51a1b2714b1832b3",
    "pairs-of-three/p-lfr-broadcast/1":
        "b183d7b58a4276e4f5131fee1e2628a2de0f0b538f959576428f9fa55f6df2c0",
    "pairs-of-three/p-lfr-broadcast/2":
        "d053bc18b61156f7b3057cc7f5ddf4d4e4e3d7a882e524205583efeb083c4ca4",
    "triples-of-five/sp-lfr/0":
        "6880e58fe4b396b893c8a82ccf8f677ef095a9e180f07324c5e69c1fbd362348",
    "triples-of-five/sp-lfr/1":
        "8721a61499b6b5fd55ef194d2ee65e24c879dff1ba75ea2ece29ea9ad0006883",
    "triples-of-five/sp-lfr/2":
        "590a1bff6872ade03f9edc2ce4ce5a3dcad67ad1383ab5aec04514c0c672d2c6",
    "triples-of-five/p-lfr/0":
        "b6a102c7e7d30eb3a6a814b8ea06ef90df9c96eb3335a63375e272d5e44707e3",
    "triples-of-five/p-lfr/1":
        "361b485e1ad955acffff6d04053b923e25f8c444b20b43c5f7ce67ba959991ae",
    "triples-of-five/p-lfr/2":
        "6137e3c9b3c915fc0b903b92dd1e723d7fef44ef8ab194a630c3358c29362073",
    "triples-of-five/s-lfr/0":
        "f26ebafea611c9742e2b19bbf5b9ea2503fa9dbd6465172e6cffb532bedf2ecf",
    "triples-of-five/s-lfr/1":
        "f0c0369bdca3166e35dda0627f2e9aa639a66c0cb3ea267b56e68964190eedb8",
    "triples-of-five/s-lfr/2":
        "78c922d6f13b055d0c96cd0ef0039039d4b125954f0fca2f2fe1d9e6700d1d60",
    "triples-of-five/is-lfr/0":
        "f0e04d14f73f0be44ffc286fab97fc4072d02fc32b9163bbab34a95ff7c65787",
    "triples-of-five/is-lfr/1":
        "48324a6afa66b7367bc05384103df533b0dc2f0a321c1c1dfb3ca485b9c3396e",
    "triples-of-five/is-lfr/2":
        "40312f45d49148eadcb9e496ba4923a2f0045e584987423a95de7d84b86cc1a5",
    "triples-of-five/lfr/0":
        "e8e140953fa7dcb4bb93682d1001c7f5d0d23c587c48230abc26ac3faafc7fbd",
    "triples-of-five/lfr/1":
        "54a2ca145530ad71acf50588073d119feca2b5325ee1d6e0972323f278633c1b",
    "triples-of-five/lfr/2":
        "ad11ed74c4225c219b183b6a2d01a69b50f401909c0b61d58f50032423e24ff5",
    "triples-of-five/p-lfr-broadcast/0":
        "34b5f3dcdb8e653fb05fb72c79a7cd1255a1f4add602f8e99b0fc444c24481e0",
    "triples-of-five/p-lfr-broadcast/1":
        "8110255cf976e6634403624e9b19a431bbd74e63bd7c51f2c3a5704e8d7ef915",
    "triples-of-five/p-lfr-broadcast/2":
        "867c0eab1f8517b3a73a6915b07fb4f8a6c94e5c7bd8a98922e2ebc0049f06bc",
    "pairs-of-five/sp-lfr/0":
        "350adf559621d1860215fa38a35ba3b7ceff196fc442e699c91fdbc6bc248ee2",
    "pairs-of-five/sp-lfr/1":
        "7576275ff83d22eb9259d27ee96443548cdc1ea2e488a49d12cae7285ef21865",
    "pairs-of-five/sp-lfr/2":
        "5117fc45e40b36fe5fae0d926ab99fa074a64c64de6b117d4597829f1574bb31",
    "pairs-of-five/p-lfr/0":
        "ab7c6b52bd8a07a4f8591f99a41db14588d59698cfe5612184a1585c3e201394",
    "pairs-of-five/p-lfr/1":
        "b3534f22d536e14ce50bcd5be537c56686c9eb804c849f6f03a3f31fc6e9b2db",
    "pairs-of-five/p-lfr/2":
        "8d2d115c8e600ab23e9b125ecd57ed5a58297f153198f2e43bb3154a1fbf4507",
    "pairs-of-five/s-lfr/0":
        "9babc0f0d4ecd80f56ff6f6f757d14a8f596a7e957e9c6b13b62f4a1c0454a72",
    "pairs-of-five/s-lfr/1":
        "3dc3f4dbf159a5ce04293b977919333ab4cdddf8587ae2ed08e6e7060f224bec",
    "pairs-of-five/s-lfr/2":
        "6a075ec6e88714809aba2601428a65f07a4f35493a046c54a0a07b0465fd988a",
    "pairs-of-five/is-lfr/0":
        "57131ae92ec178ccc636bd07b18d4c1bd2e028960efa80190c1d356cec3cf659",
    "pairs-of-five/is-lfr/1":
        "ae8f2a4d3473a8abf10a96b2037e6ce270ae128086b9c4a3a13ad88f7372cd69",
    "pairs-of-five/is-lfr/2":
        "53b20de1971a3d316c1962591edcafdd704a15bf005422b38e9155586728e3d2",
    "pairs-of-five/lfr/0":
        "4495b2a925c1ce099252187ede58864432e0c5adde4f86cc7ee26cd27c9d9051",
    "pairs-of-five/lfr/1":
        "f26ddef8082eb699fde5a4d1904f3218f837813265ea65ef7435d5a573cdbbd1",
    "pairs-of-five/lfr/2":
        "32cf98c4d30f3b620cfde32e0dfd7238cb2597627a5d0489b551df53d6351a72",
    "pairs-of-five/p-lfr-broadcast/0":
        "b6d6e69b52d301f3eb51e095b4f9d776dcf6fdbc8abafef8387b55dc4d755ee3",
    "pairs-of-five/p-lfr-broadcast/1":
        "0578b8a80d6e96c32419a782769e6f5bd0e4bdee16ba01bdb51b8f73a891eb19",
    "pairs-of-five/p-lfr-broadcast/2":
        "4e00145801a5dcece7ea99ca67190358c0123c4483054b093262410012b6449d",
}

# Rounds off the presets, each kind under its random demands ->
# (transcript.bin, transcript.json) digests, keyed "<C>-<r>-<t>/<kind>/<seed>".
# r = 1 (C=4 t=2, N=3, F=31) keeps one whole share per slot; r = 4 (C=5
# t=1, N=3, F=22) has 5-bit subfiles in 6-bit share blocks of 3-bit symbols,
# so every share carries tail padding; and engine-c10's shape (C=10 r=3 t=3,
# N=20, F=1920) at seed 1.
OFF_PRESET_SHAPES = {"4-1-2": (3, 31), "5-4-1": (3, 22), "10-3-3": (20, 1920)}
OFF_PRESET_ROUNDS = {
    "4-1-2/sp-lfr/0": (
        "4e96deb99dd686e01baa08abe52d9f821dd98716feba0df876843069a10bfac8",
        "9f124f84fda5df84da6e5a4a67f25eec41b830c649c0d2d30df56bb3e1914432"),
    "4-1-2/p-lfr/0": (
        "93cbc4ec61faa98dcb4f1496af90880c53ca973eca4c1c795d5dae30997577c2",
        "42054a4616e1af62d7fc287c099708666861547c51acd47219b6515305f1fd87"),
    "4-1-2/s-lfr/0": (
        "0a8dc53879f8e9c06e2d53729a79e0c7208efc74d1fa9b6fc82fe9630c407353",
        "a5e5a656d4803afc5291141f9a8289f07cca43ced0cd43e786ea1938b49fff31"),
    "4-1-2/is-lfr/0": (
        "abd2d80566aec8c5d50a593b8e22be171e3dad0df5f2227d906a2444c4f094d8",
        "925e08ed61bc74e33d9b9a5433c1affeb864263312b5bea3298b4dbe3d2c197c"),
    "4-1-2/lfr/0": (
        "3943aa4f92b5517246e1085baf8dc25382d12fd7cd4ecf65f1ab7975ab782fd2",
        "8aef58558690f48fc0c5e5fb6e6bf9ca96c78c1929f98a87563bea815e09bad4"),
    "5-4-1/sp-lfr/0": (
        "072b9e6077cc7896a1f6c6c67eeb859ab0fadec48301a17f3ee3e302ef827a2c",
        "11c9a2f9ef5cdc9c26019638fa6af94b043a541347c222604390034abefab925"),
    "5-4-1/p-lfr/0": (
        "31e6d037463218146cc077d38e8ad59c786b05424b8fc686c9d9f9e7df213f63",
        "934364f064d7a8e2a3f8387d468fd8bef88ee40378786f1dacf5fdd3e56bfcc8"),
    "5-4-1/s-lfr/0": (
        "efe072fa24f0de1ed2585940eedc977f0fafa0fcfc3a7e87c306bd3b84b56c5b",
        "a027a61f0b693de4091450bdcc7aa2df2814ee19ee2122c02e4c8dee76360d21"),
    "5-4-1/is-lfr/0": (
        "b3a0853fd0fb8a5023060bbfc4f9fb773386b0227c1a1707c777dd52556b29f4",
        "3bd35e46dd679d8a2795d64f9894f2905da85a85a05493e9819b6afb4576cf8a"),
    "5-4-1/lfr/0": (
        "ade75eb39639be30dcbcb64cc23c80d1b224d67cc8862a8e0c6c26c9984de65b",
        "698e7a06b522a7bd2b1fe50f3697816b322631f1fb5702c4e70e2c6fb56553c3"),
    "10-3-3/sp-lfr/1": (
        "8f1e784655447ad8de8c6eea608c74433c77695d09931bf0f1ed32f078b52163",
        "79f9d696766294c176f5800ab79c82535aa9552f11cc4b3c018e3aa9263107d6"),
    "10-3-3/p-lfr/1": (
        "5a1ae37a0a8c430741d8d1ce110133bc26cf7a49a4670afd4ae4aa03b4cbbd50",
        "a1d989472845cc397b0d2c67e2e3041d6599ba142614720bb352cdb347a0fb68"),
    "10-3-3/s-lfr/1": (
        "0f3e23f6dc83d1fd2f6635385e91943cef22d2fded59cf6314e83856f895eeb7",
        "2e12195ebb4a51a922eae461267e604530d2497d55a718f2ce09478af0ae7d8c"),
    "10-3-3/is-lfr/1": (
        "31763708b4061a0985d8cefe5d974bd7ea9a8de932099634bf5c0b6f10ecf5d0",
        "673db9bfd6783eb5797d27af9939f294cf2847468072c296832e23ba9a92a3e3"),
    "10-3-3/lfr/1": (
        "3f7373562a862f0ce5c1b063abdff404c3aec042a7b9202bf43758d2850cb76b",
        "42801d0992efbe56e42dc5be0da216ae3f56031b7d4e7c4ee1ae939deffac850"),
}

# `maclfr verify --suite <suite> --seed 0` -> digest of report.json.
REPORTS = {
    "correctness":
        "4dd88820bc0919e5500a1a5c0e544daca4c8719df103b1cb8e13837e24d2715c",
    "privacy":
        "aacb6c7d1f37d852b96f675e1f74ab3c83d98d3a2f7df0ff79d690f7e0340163",
    "security":
        "832481c0c4828f835691f20ef2cd956ff503a252793eb7caa84c3ef109112710",
    "shares":
        "deac384150e38d5e3519b510ca27267172f6c8e1b6bf7b75449e4d95aedcec5d",
}

# `maclfr verify --suite security --C 3 --r 2 --t 1 --N 2 --scheme <kind>
# --seed 0` -> digest of report.json.  All three take the affine route,
# which spends fewer engine runs than their states: s-lfr and sp-lfr are
# certified by the fixed point, and lfr reports the exact mutual
# information of its rank sum; all three run the engine on randomness
# unpacked from RandomnessLayout, sp-lfr's without its coef run, which no
# transmission reads.
SECURITY_INSTANCES = {
    "s-lfr":
        "95d0efcc7dafefb6c60ddf70ef9ce5b8b79564d05782b2ab27c1dcbf222f9da1",
    "sp-lfr":
        "6a0be834c828ae73aa60c0133b16614dd5458e5cdbe535474a92a3e8cff838ab",
    "lfr":
        "9121dd3866863a493c0b1adee9306e2194166eead40e53db090ab0ad5ace3b54",
}

# The same command with `--method enumerate`: every one of the 64 library
# values times the randomness values runs through the real engine.
ENUMERATED_SECURITY_INSTANCES = {
    "s-lfr":
        "b959235ef51b9fca075db78e74a0695292bb5133f5b32a05d28912cdfb033d31",
    "lfr":
        "a0b5a488720328d491f747ab4feeb3be684c96edb8895320095fa2ee45a1b0be",
}

# `maclfr curve --figure <n>` -> digest of curves.csv.
CURVES = {
    2:
        "67aedd136c77bcc082939dd94b584904001a90423934c37ac1585781b6a348f0",
    3:
        "0714dbbca9ea13eec1f9184b2a38280321df322eea7a066b4bffae8e64808494",
    4:
        "ee57eeba833737f63e7d47b54f9628dacbfa46ccea734ad5f91a6b33a47de6df",
    5:
        "efa13ae01460f03ebd4b86eb722fbd92875c6d3f91e1e3482c7a5519be480070",
}


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def quiet_main(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))


@pytest.mark.parametrize("variant",
                         [k.value for k in SchemeKind] + [BROADCAST])
@pytest.mark.parametrize("preset", sorted(WORKED_CONFIGURATIONS))
def test_simulation_artifacts_match_golden_digests(preset, variant):
    worked = WORKED_CONFIGURATIONS[preset]
    for seed in SEEDS:
        if variant == BROADCAST:
            cfg = replace(worked.config(SchemeKind.P_LFR, seed),
                          broadcast=True)
        else:
            cfg = worked.config(SchemeKind(variant), seed)
        result = simulate(cfg, demands=worked.demands())
        key = f"{preset}/{variant}/{seed}"
        assert sha256(simulation_to_bytes(result)) == TRANSCRIPT_BIN[key], key
        assert sha256(simulation_to_json(result)) == TRANSCRIPT_JSON[key], key


@pytest.mark.parametrize("key", sorted(OFF_PRESET_ROUNDS))
def test_off_preset_artifacts_match_golden_digests(key):
    shape, kind, seed = key.split("/")
    num_files, file_bits = OFF_PRESET_SHAPES[shape]
    topo = TopologySpec(*map(int, shape.split("-")))
    cfg = SchemeConfig(topo, num_files, file_bits, SchemeKind(kind),
                       seed=int(seed))
    result = simulate(cfg)
    assert result.ok
    assert (sha256(simulation_to_bytes(result)),
            sha256(simulation_to_json(result))) == OFF_PRESET_ROUNDS[key]


@pytest.mark.parametrize("suite", sorted(REPORTS))
def test_verify_report_matches_golden_digest(suite, tmp_path):
    assert quiet_main("verify", "--suite", suite, "--seed", "0",
                      "--out", str(tmp_path)) == 0
    assert sha256((tmp_path / "report.json").read_bytes()) == REPORTS[suite]


@pytest.mark.parametrize("kind", sorted(SECURITY_INSTANCES))
def test_security_instance_report_matches_golden_digest(kind, tmp_path):
    assert quiet_main("verify", "--suite", "security", "--C", "3", "--r", "2",
                      "--t", "1", "--N", "2", "--scheme", kind,
                      "--seed", "0", "--out", str(tmp_path)) == 0
    digest = sha256((tmp_path / "report.json").read_bytes())
    assert digest == SECURITY_INSTANCES[kind]


@pytest.mark.parametrize("kind", sorted(ENUMERATED_SECURITY_INSTANCES))
def test_enumerated_security_report_matches_golden_digest(kind, tmp_path):
    assert quiet_main("verify", "--suite", "security", "--C", "3", "--r", "2",
                      "--t", "1", "--N", "2", "--scheme", kind,
                      "--method", "enumerate", "--seed", "0",
                      "--out", str(tmp_path)) == 0
    digest = sha256((tmp_path / "report.json").read_bytes())
    assert digest == ENUMERATED_SECURITY_INSTANCES[kind]


@pytest.mark.parametrize("figure", sorted(CURVES))
def test_figure_curves_match_golden_digest(figure, tmp_path):
    assert quiet_main("curve", "--figure", str(figure),
                      "--out", str(tmp_path)) == 0
    assert sha256((tmp_path / "curves.csv").read_bytes()) == CURVES[figure]


# pairs-of-three keeps its ids; triples-of-five (r = 3) adds its own.
OPTIMIZE_RUNS = [pytest.param(preset, k.value, id=prefix + k.value)
                 for preset, prefix in (("pairs-of-three", ""),
                                        ("triples-of-five", "triples-of-five-"))
                 for k in SchemeKind]


@pytest.mark.parametrize("preset,kind", OPTIMIZE_RUNS)
def test_simulate_under_python_optimize_matches_golden_digest(preset, kind,
                                                              tmp_path):
    # -O strips assert statements: a check that only an assert made would
    # vanish here, and the artifact or the exit code would show it.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("MACLFR_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "maclfr.cli", "simulate",
         "--preset", preset, "--scheme", kind, "--seed", "0",
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    digest = sha256((tmp_path / "transcript.bin").read_bytes())
    assert digest == TRANSCRIPT_BIN[f"{preset}/{kind}/0"]


def test_no_source_check_is_an_assert_statement():
    # -O strips assert statements, so every check in the package raises
    # explicitly; this holds the sources to it, not only the runs above.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "maclfr").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_security_verify_under_python_optimize_matches_golden_digest(
        tmp_path):
    # The security runs' layout, unpack plan and subfile tables give the
    # same report with assert statements stripped.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("MACLFR_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "maclfr.cli", "verify",
         "--suite", "security", "--seed", "0", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    digest = sha256((tmp_path / "report.json").read_bytes())
    assert digest == REPORTS["security"]


def test_correctness_verify_under_python_optimize_matches_golden_digest(
        tmp_path):
    # Every kind's decode_rows, its decode plan and its gathers give the
    # same report with assert statements stripped.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("MACLFR_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "maclfr.cli", "verify",
         "--suite", "correctness", "--seed", "0", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    digest = sha256((tmp_path / "report.json").read_bytes())
    assert digest == REPORTS["correctness"]
