#include "trace/trace.hh"

#include "util/logging.hh"

namespace gws {

TextureId
Trace::addTexture(TextureDesc desc)
{
    const auto id = static_cast<TextureId>(textureTable.size());
    GWS_ASSERT(id != invalidResourceId, "texture table full");
    textureTable.push_back(desc);
    return id;
}

RenderTargetId
Trace::addRenderTarget(RenderTargetDesc desc)
{
    const auto id = static_cast<RenderTargetId>(renderTargetTable.size());
    GWS_ASSERT(id != invalidResourceId, "render-target table full");
    renderTargetTable.push_back(desc);
    return id;
}

const TextureDesc &
Trace::texture(TextureId id) const
{
    GWS_ASSERT(id < textureTable.size(), "texture id out of range: ", id);
    return textureTable[id];
}

const RenderTargetDesc &
Trace::renderTarget(RenderTargetId id) const
{
    GWS_ASSERT(id < renderTargetTable.size(),
               "render-target id out of range: ", id);
    return renderTargetTable[id];
}

void
Trace::addFrame(Frame frame)
{
    GWS_ASSERT(frame.index() == frameList.size(),
               "frame index ", frame.index(), " appended at position ",
               frameList.size());
    frameList.push_back(std::move(frame));
}

const Frame &
Trace::frame(std::size_t i) const
{
    GWS_ASSERT(i < frameList.size(), "frame index out of range: ", i);
    return frameList[i];
}

std::uint64_t
Trace::totalDraws() const
{
    std::uint64_t total = 0;
    for (const auto &f : frameList)
        total += f.drawCount();
    return total;
}

std::uint64_t
Trace::textureBytes() const
{
    std::uint64_t total = 0;
    for (const auto &t : textureTable)
        total += t.sizeBytes();
    return total;
}

void
Trace::validate() const
{
    for (std::size_t fi = 0; fi < frameList.size(); ++fi) {
        const Frame &f = frameList[fi];
        GWS_ASSERT(f.index() == fi, "frame ", fi, " carries index ",
                   f.index());
        for (std::size_t di = 0; di < f.draws().size(); ++di) {
            const DrawCall &d = f.draws()[di];
            const RenderState &s = d.state;
            GWS_ASSERT(shaderTable.contains(s.vertexShader),
                       "frame ", fi, " draw ", di,
                       ": dangling vertex shader ", s.vertexShader);
            GWS_ASSERT(shaderTable.contains(s.pixelShader),
                       "frame ", fi, " draw ", di,
                       ": dangling pixel shader ", s.pixelShader);
            GWS_ASSERT(shaderTable.get(s.vertexShader).stage() ==
                           ShaderStage::Vertex,
                       "frame ", fi, " draw ", di,
                       ": VS slot bound to a non-vertex shader");
            GWS_ASSERT(shaderTable.get(s.pixelShader).stage() ==
                           ShaderStage::Pixel,
                       "frame ", fi, " draw ", di,
                       ": PS slot bound to a non-pixel shader");
            for (TextureId t : s.textures) {
                GWS_ASSERT(t < textureTable.size(), "frame ", fi, " draw ",
                           di, ": dangling texture ", t);
            }
            GWS_ASSERT(s.renderTarget < renderTargetTable.size(),
                       "frame ", fi, " draw ", di,
                       ": dangling render target ", s.renderTarget);
            GWS_ASSERT(d.instanceCount >= 1, "frame ", fi, " draw ", di,
                       ": zero instance count");
            GWS_ASSERT(d.overdraw >= 1.0, "frame ", fi, " draw ", di,
                       ": overdraw below 1: ", d.overdraw);
            GWS_ASSERT(d.texLocality >= 0.0 && d.texLocality <= 1.0,
                       "frame ", fi, " draw ", di,
                       ": texLocality out of [0,1]: ", d.texLocality);
            const auto rt_pixels = renderTargetTable[s.renderTarget].pixels();
            GWS_ASSERT(d.coveredPixels() <= rt_pixels,
                       "frame ", fi, " draw ", di, ": covers ",
                       d.coveredPixels(), " pixels but target has only ",
                       rt_pixels);
        }
    }
}

} // namespace gws
